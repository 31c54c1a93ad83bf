package obs

import (
	"bufio"
	"fmt"
	"io"
)

// ChromeTraceWriter is the encoder for Chrome trace-event JSON (the
// {"displayTimeUnit":"ns","traceEvents":[...]} form loadable in Perfetto or
// chrome://tracing). It handles the envelope and the comma discipline
// between events; callers format each event object themselves via Emit.
// The request-lifecycle tracer (Tracer.WriteChromeTraceWith) renders its
// spans and the decision recorder's counter tracks through it.
type ChromeTraceWriter struct {
	bw    *bufio.Writer
	first bool
}

// NewChromeTraceWriter opens the trace envelope on w.
func NewChromeTraceWriter(w io.Writer) *ChromeTraceWriter {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	return &ChromeTraceWriter{bw: bw, first: true}
}

// Emit appends one event object, formatted printf-style. The format must
// produce a complete JSON object; the writer inserts the separating comma.
func (cw *ChromeTraceWriter) Emit(format string, args ...any) {
	if !cw.first {
		cw.bw.WriteByte(',')
	}
	cw.first = false
	fmt.Fprintf(cw.bw, format, args...)
}

// Close terminates the event array and envelope and flushes.
func (cw *ChromeTraceWriter) Close() error {
	cw.bw.WriteString("]}\n")
	return cw.bw.Flush()
}
