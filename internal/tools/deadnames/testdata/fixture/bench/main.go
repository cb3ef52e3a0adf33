// Command bench stands for a second module that only uses the first.
package main

import "fixture/lib"

func main() { lib.ForBench() }
