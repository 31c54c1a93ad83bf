package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/decisions.golden.csv")

// TestDecisionCSVGolden pins the decision table's bytes. Windows are driven
// by hand through the sectored solver (two sources) and the eDRAM solver
// (three sources), each with partitioned windows, a window under the
// cache's budget and an empty one, and both recorders' tables are compared
// with testdata/decisions.golden.csv.
func TestDecisionCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, tc := range []struct {
		arch    Arch
		windows []WindowCounts
	}{
		{SectoredArch, []WindowCounts{
			{AMSR: 10, AMM: 5, Rm: 5},                                 // under the budget
			{AMSR: 40, AMSW: 10, AMM: 4, Rm: 12, Wm: 6},               // FWB and WB
			{AMSR: 60, AMSW: 20, AMM: 2, Rm: 3, Wm: 2, CleanHits: 50}, // FWB, WB and IFRM
			{AMSR: 30, AMM: 1, Rm: 20},                                // FWB and SFRM
			{},                                                        // empty
			{AMSR: 25, AMSW: 15, AMM: 30, Rm: 10, Wm: 4, CleanHits: 7}, // main memory bound
		}},
		{EDRAMArch, []WindowCounts{
			{AMSR: 30, AMSW: 5, AMM: 2, Rm: 3, Wm: 5, CleanHits: 40},   // read shortage
			{AMSR: 5, AMSW: 30, AMM: 2, Rm: 4, Wm: 25},                 // write shortage
			{AMSR: 30, AMSW: 30, AMM: 2, Rm: 4, Wm: 25, CleanHits: 40}, // both
			{AMSR: 5, AMSW: 5, AMM: 2, Rm: 1, Wm: 1, CleanHits: 3},     // under the budget
			{}, // empty
		}},
	} {
		d, eng, wc := newTestDAP(tc.arch)
		rec := NewDecisionRecorder()
		d.SetRecorder(rec)
		for _, w := range tc.windows {
			*wc = w
			fire(eng)
		}
		if got := len(rec.Records()); got != len(tc.windows) {
			t.Fatalf("arch %d: %d records for %d windows", tc.arch, got, len(tc.windows))
		}
		if err := rec.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	golden := filepath.Join("testdata", "decisions.golden.csv")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s: %v", golden, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("decision CSV differs from %s\ngot:\n%swant:\n%s", golden, buf.String(), want)
	}
}
