package main

import (
	"strings"
	"testing"

	"dap"
)

// TestSelectDrivers: -only selects in table order, an empty list selects
// every driver, and an unknown key fails naming it and listing every key.
func TestSelectDrivers(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range dap.Drivers {
		if seen[d.Key] || d.Run == nil {
			t.Fatalf("driver table: key %q repeated or without a driver", d.Key)
		}
		seen[d.Key] = true
	}
	all, err := selectDrivers("")
	if err != nil || len(all) != len(dap.Drivers) {
		t.Fatalf("empty -only selected %d of %d drivers (err %v)", len(all), len(dap.Drivers), err)
	}
	sel, err := selectDrivers(" Tab1,fig6,fig6 ")
	if err != nil || len(sel) != 2 || sel[0].Key != "fig6" || sel[1].Key != "tab1" {
		t.Fatalf("-only tab1,fig6: got %v (err %v), want fig6 then tab1", sel, err)
	}
	_, err = selectDrivers("fig6,fig99,abl-nope")
	if err == nil {
		t.Fatal("-only with unknown keys selected drivers without an error")
	}
	for _, want := range []string{"fig99", "abl-nope", "abl-techniques", "breakdown", "calib"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
