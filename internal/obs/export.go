package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"

	"dap/internal/mem"
)

// WriteCSV writes the retained series as CSV: a `cycle` column followed by
// one column per probe in registration order, one row per sample window
// (oldest first). Counter/Util probes are exported as per-window deltas and
// rates, so the file is directly plottable.
func (s *Sampler) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("cycle")
	for i := range s.probes {
		bw.WriteByte(',')
		bw.WriteString(csvEscape(s.probes[i].name))
	}
	bw.WriteByte('\n')
	s.export(func(t mem.Cycle, vals []float64) {
		bw.WriteString(strconv.FormatUint(uint64(t), 10))
		for _, v := range vals {
			bw.WriteByte(',')
			bw.WriteString(formatVal(v))
		}
		bw.WriteByte('\n')
	})
	return bw.Flush()
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
