package hw

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// ReadConfig parses and validates a machine description from JSON.
func ReadConfig(r io.Reader) (*Machine, error) {
	var m Machine
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("hw: bad machine config: %v", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// LoadConfig reads a machine description from a JSON file.
func LoadConfig(path string) (*Machine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("hw: %v", err)
	}
	defer f.Close()
	return ReadConfig(f)
}
