package obs

import (
	"context"
	"io"
	"log/slog"
	"strings"
)

// The sweep service logs through log/slog with one convention: every record
// about a job carries the attribute "corr", the job's correlation ID
// ("s<sweep>-j<job>"), so a grep for one corr value reconstructs the job's
// whole lifecycle across submit, execute and store — whichever
// component emitted each record. The logger and the correlation ID travel
// on the context; a nil or absent logger degrades to a silent one so
// library code can log unconditionally.

// NewLogger builds a slog.Logger writing to w. format is "text" or "json"
// (anything else selects text); level is "debug", "info", "warn" or
// "error" (default info).
func NewLogger(w io.Writer, level, format string) *slog.Logger {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		lv = slog.LevelInfo
	}
	opts := &slog.HandlerOptions{Level: lv}
	if strings.ToLower(format) == "json" {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// NopLogger returns a logger that discards every record — the fallback for
// components constructed without one, keeping call sites unconditional.
func NopLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
}

type ctxKey int

const (
	corrKey ctxKey = iota
	loggerKey
)

// WithCorr stamps a correlation ID onto the context.
func WithCorr(ctx context.Context, corr string) context.Context {
	return context.WithValue(ctx, corrKey, corr)
}

// Corr returns the context's correlation ID, or "".
func Corr(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	c, _ := ctx.Value(corrKey).(string)
	return c
}

// WithLogger attaches a logger to the context.
func WithLogger(ctx context.Context, l *slog.Logger) context.Context {
	return context.WithValue(ctx, loggerKey, l)
}

// LoggerFrom returns the context's logger, or a silent one — never nil, so
// callers chain .Info/.Debug without checking.
func LoggerFrom(ctx context.Context) *slog.Logger {
	if ctx != nil {
		if l, ok := ctx.Value(loggerKey).(*slog.Logger); ok && l != nil {
			return l
		}
	}
	return NopLogger()
}

// OrNop returns l, or a silent logger when l is nil — the standard guard at
// the top of a component that stores an optional logger.
func OrNop(l *slog.Logger) *slog.Logger {
	if l == nil {
		return NopLogger()
	}
	return l
}
