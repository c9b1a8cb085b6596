package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"arrayvers"
	"arrayvers/client"
)

// span is the benchmark's own record of one traced client call: its
// request ID, the interval measured around the call, and the server's
// summary for the same ID, from which the child spans are taken.
type span struct {
	request    string
	kind       opKind
	start, end time.Time
	bytes      int64
	server     arrayvers.TraceSummary
	fetched    bool
}

// traceLog keeps every span of a traced pass in memory until the run ends.
type traceLog struct {
	mu     sync.Mutex
	spans  []*span
	missed int // server traces that could not be fetched
}

func (tl *traceLog) begin(kind opKind) *span {
	sp := &span{request: arrayvers.NewTraceID(), kind: kind}
	tl.mu.Lock()
	tl.spans = append(tl.spans, sp)
	tl.mu.Unlock()
	return sp
}

func (sp *span) finish(start, end time.Time, bytes int64) {
	sp.start, sp.end, sp.bytes = start, end, bytes
}

// fetch reads the server's trace of a finished call from /debug/traces.
// Callers fetch one op behind, since the server publishes a trace only
// after the reply has been sent; the ring holds the newest 256.
func (tl *traceLog) fetch(c *client.Client, sp *span) {
	if tl == nil || sp == nil {
		return
	}
	sum, err := c.Trace(sp.request)
	if err != nil {
		tl.mu.Lock()
		tl.missed++
		tl.mu.Unlock()
		return
	}
	sp.server, sp.fetched = sum, true
}

// spanRecord is the written form of a span. The server keeps only a
// total per stage, so a stage's record starts with the server's span and
// lasts the stage's summed time; it says how long, not when.
type spanRecord struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_unix_ns"`
	EndNs   int64  `json:"end_unix_ns"`
	Parent  string `json:"parent,omitempty"`
	Request string `json:"request"`
}

func (tl *traceLog) write(path string) error {
	var recs []spanRecord
	for _, sp := range tl.spans {
		clientName := "client." + opNames[sp.kind]
		recs = append(recs, spanRecord{Name: clientName, StartNs: sp.start.UnixNano(), EndNs: sp.end.UnixNano(), Request: sp.request})
		if !sp.fetched {
			continue
		}
		serverName := "server." + sp.server.Name
		s0 := sp.server.Start.UnixNano()
		recs = append(recs, spanRecord{Name: serverName, StartNs: s0, EndNs: s0 + sp.server.DurationNs, Parent: clientName, Request: sp.request})
		for _, st := range sp.server.Stages {
			recs = append(recs, spanRecord{Name: "core." + st.Stage, StartNs: s0, EndNs: s0 + st.Nanos, Parent: serverName, Request: sp.request})
		}
	}
	raw, err := json.Marshal(recs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
