package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
)

// ResultLine is one NDJSON line of a sweep stream: the unit it describes and
// either its report text or a quarantined error. Lines are emitted in unit
// order, so successful bodies are byte-identical across runs — there are no
// timestamps or cache markers here by design (cache behaviour is observable
// on /v1/stats instead).
type ResultLine struct {
	Experiment string     `json:"experiment"`
	Seed       int64      `json:"seed"`
	Scale      float64    `json:"scale"`
	Report     string     `json:"report,omitempty"`
	Error      *LineError `json:"error,omitempty"`
}

// LineError is the in-band form of a quarantined unit failure. The full
// stack stays in the ledger; the stream carries only kind and message.
type LineError struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

// SummaryLine terminates every stream — complete, failed, or cancelled — so
// a client can distinguish a finished sweep from a torn connection.
type SummaryLine struct {
	Done      bool `json:"done"`
	Cancelled bool `json:"cancelled,omitempty"`
	Units     int  `json:"units"`
	Completed int  `json:"completed"`
	Failed    int  `json:"failed,omitempty"`
}

// marshalResult renders a unit's result to the exact bytes that are both
// streamed and cached (no trailing newline). Marshalling is deterministic —
// fixed field order, fixed float formatting — which is what makes "served
// from cache" and "recomputed" byte-identical.
func marshalResult(k Key, report string) []byte {
	b, err := json.Marshal(ResultLine{
		Experiment: k.Experiment, Seed: k.Seed, Scale: k.Scale, Report: report,
	})
	if err != nil {
		// A Report is strings all the way down; this cannot fail.
		panic(err)
	}
	return b
}

// lineWriter serializes NDJSON writes to one response and flushes after each
// line so clients see progress trial-by-trial rather than at sweep end.
type lineWriter struct {
	mu sync.Mutex
	w  io.Writer
	f  http.Flusher
}

func newLineWriter(w http.ResponseWriter) *lineWriter {
	lw := &lineWriter{w: w}
	lw.f, _ = w.(http.Flusher)
	return lw
}

// writeRaw emits pre-marshalled line bytes plus the newline.
func (lw *lineWriter) writeRaw(line []byte) error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if _, err := lw.w.Write(line); err != nil {
		return err
	}
	if _, err := lw.w.Write([]byte{'\n'}); err != nil {
		return err
	}
	if lw.f != nil {
		lw.f.Flush()
	}
	return nil
}

// writeJSON marshals v and emits it as one line.
func (lw *lineWriter) writeJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return lw.writeRaw(b)
}
