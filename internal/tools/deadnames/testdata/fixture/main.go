// Command fixture is the production user of package lib.
package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	var c lib.Counter
	c.Add()
	lib.Put(1, 2)
	var err error = lib.Failure{}
	fmt.Println(lib.Used(), lib.Celsius(21), c.Total(), err)
}
