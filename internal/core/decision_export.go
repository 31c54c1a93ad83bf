package core

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// jsonDecision is the JSONL wire form of a DecisionRecord: a type tag so
// decision and policy lines share one stream, and per-source fields labeled
// by name rather than position.
type jsonDecision struct {
	Type        string             `json:"type"`
	Version     int                `json:"version"`
	Cycle       uint64             `json:"cycle"`
	Window      uint64             `json:"window"`
	Arch        int                `json:"arch"`
	Counts      WindowCounts       `json:"counts"`
	KNum        int64              `json:"k_num"`
	KDen        int64              `json:"k_den"`
	FWB         int64              `json:"fwb"`
	WB          int64              `json:"wb"`
	IFRM        int64              `json:"ifrm"`
	SFRM        int64              `json:"sfrm"`
	WT          int64              `json:"wt"`
	Partitioned bool               `json:"partitioned"`
	Fractions   map[string]float64 `json:"fractions"`
	Optimal     map[string]float64 `json:"optimal"`
	Delivered   float64            `json:"delivered_gbps"`
	OptimalBW   float64            `json:"optimal_gbps"`
	Gap         float64            `json:"gap"`
}

type jsonPolicyEvent struct {
	Type         string `json:"type"`
	Version      int    `json:"version"`
	Cycle        uint64 `json:"cycle"`
	Policy       string `json:"policy"`
	Epoch        uint64 `json:"epoch,omitempty"`
	DisabledSets int    `json:"disabled_sets,omitempty"`
	DirtyPages   int    `json:"dirty_pages,omitempty"`
	SteeredMM    uint64 `json:"steered_mm,omitempty"`
	Promotions   uint64 `json:"promotions,omitempty"`
	Cleanings    uint64 `json:"cleanings,omitempty"`
}

func (r *DecisionRecorder) byName(vals []float64) map[string]float64 {
	m := make(map[string]float64, len(vals))
	for i, v := range vals {
		name := strconv.Itoa(i)
		if i < len(r.sources) {
			name = r.sources[i]
		}
		m[name] = v
	}
	return m
}

// WriteJSONL streams every retained decision record (type "decision") and
// policy event (type "policy") as one JSON object per line, in time order
// within each kind.
func (r *DecisionRecorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, rec := range r.Records() {
		if err := enc.Encode(jsonDecision{
			Type: "decision", Version: rec.Version,
			Cycle: uint64(rec.Cycle), Window: rec.Window, Arch: int(rec.Arch),
			Counts: rec.Counts, KNum: rec.K.Num, KDen: rec.K.Den,
			FWB: rec.FWB, WB: rec.WB, IFRM: rec.IFRM, SFRM: rec.SFRM, WT: rec.WT,
			Partitioned: rec.Partitioned,
			Fractions:   r.byName(rec.Fractions), Optimal: r.byName(rec.Optimal),
			Delivered: rec.DeliveredGBps, OptimalBW: rec.OptimalGBps, Gap: rec.Gap,
		}); err != nil {
			return err
		}
	}
	for _, ev := range r.Events() {
		if err := enc.Encode(jsonPolicyEvent{
			Type: "policy", Version: ev.Version, Cycle: uint64(ev.Cycle),
			Policy: ev.Policy, Epoch: ev.Epoch, DisabledSets: ev.DisabledSets,
			DirtyPages: ev.DirtyPages, SteeredMM: ev.SteeredMM,
			Promotions: ev.Promotions, Cleanings: ev.Cleanings,
		}); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes the decision table (one row per window) and, when policy
// events were captured, a second "# policy events" table after a blank
// line. Column order matches the JSONL field order.
func (r *DecisionRecorder) WriteCSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	var sb strings.Builder
	sb.WriteString("cycle,window,arch,amsr,amsw,amm,rm,wm,clean_hits,k_num,k_den,fwb,wb,ifrm,sfrm,wt,partitioned")
	for _, s := range r.sources {
		fmt.Fprintf(&sb, ",frac_%s", s)
	}
	for _, s := range r.sources {
		fmt.Fprintf(&sb, ",opt_%s", s)
	}
	sb.WriteString(",delivered_gbps,optimal_gbps,gap\n")
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return err
	}
	for _, rec := range r.Records() {
		sb.Reset()
		fmt.Fprintf(&sb, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%t",
			uint64(rec.Cycle), rec.Window, int(rec.Arch),
			rec.Counts.AMSR, rec.Counts.AMSW, rec.Counts.AMM,
			rec.Counts.Rm, rec.Counts.Wm, rec.Counts.CleanHits,
			rec.K.Num, rec.K.Den,
			rec.FWB, rec.WB, rec.IFRM, rec.SFRM, rec.WT, rec.Partitioned)
		for _, v := range rec.Fractions {
			fmt.Fprintf(&sb, ",%s", strconv.FormatFloat(v, 'g', 6, 64))
		}
		for _, v := range rec.Optimal {
			fmt.Fprintf(&sb, ",%s", strconv.FormatFloat(v, 'g', 6, 64))
		}
		fmt.Fprintf(&sb, ",%s,%s,%s\n",
			strconv.FormatFloat(rec.DeliveredGBps, 'g', 6, 64),
			strconv.FormatFloat(rec.OptimalGBps, 'g', 6, 64),
			strconv.FormatFloat(rec.Gap, 'g', 6, 64))
		if _, err := io.WriteString(w, sb.String()); err != nil {
			return err
		}
	}
	if r.events.Len() == 0 {
		return nil
	}
	if _, err := io.WriteString(w, "\n# policy events\ncycle,policy,epoch,disabled_sets,dirty_pages,steered_mm,promotions,cleanings\n"); err != nil {
		return err
	}
	for _, ev := range r.Events() {
		if _, err := fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d,%d,%d\n",
			uint64(ev.Cycle), ev.Policy, ev.Epoch, ev.DisabledSets,
			ev.DirtyPages, ev.SteeredMM, ev.Promotions, ev.Cleanings); err != nil {
			return err
		}
	}
	return nil
}
