package hw

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestConfigRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteConfig(&buf, BGQ()); err != nil {
		t.Fatal(err)
	}
	m, err := ReadConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if *m != *BGQ() {
		t.Errorf("round trip changed machine:\n%+v\n%+v", m, BGQ())
	}
}

func TestConfigFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "machine.json")
	var buf bytes.Buffer
	if err := WriteConfig(&buf, XeonE5()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "Xeon E5-2420" || m.FreqGHz != 1.9 {
		t.Errorf("loaded machine = %+v", m)
	}
}

func TestReadConfigRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"bad json":       "{",
		"unknown field":  `{"Name":"x","Turbo":true}`,
		"fails validate": `{"Name":"x","FreqGHz":0}`,
	}
	for name, src := range cases {
		if _, err := ReadConfig(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLoadConfigMissingFile(t *testing.T) {
	if _, err := LoadConfig(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestConfigEditableSweep(t *testing.T) {
	// The intended workflow: dump a preset, tweak one field, reload.
	var buf bytes.Buffer
	if err := WriteConfig(&buf, BGQ()); err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(buf.String(), `"MemBandwidthGBs": 28`, `"MemBandwidthGBs": 56`, 1)
	if edited == buf.String() {
		t.Fatalf("field not found in encoding:\n%s", buf.String())
	}
	m, err := ReadConfig(strings.NewReader(edited))
	if err != nil {
		t.Fatal(err)
	}
	if m.MemBandwidthGBs != 56 {
		t.Errorf("edited bandwidth = %g", m.MemBandwidthGBs)
	}
}

// WriteConfig serializes a machine description as indented JSON — the
// interchange format for custom architecture configurations in co-design
// sweeps (cmd/skope -machine-file).
func WriteConfig(w io.Writer, m *Machine) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
