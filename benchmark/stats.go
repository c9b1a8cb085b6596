package main

import (
	"math"
	"sort"
	"strconv"
)

// failedMs stands in for the latency of an op that errored, was refused
// or returned wrong bytes: the client's own 75 s timeout, slower than any
// successful op, so failing fast never improves a percentile.
const failedMs = 75_000.0

// sortedMs returns the latencies of one op kind in ms, ascending, with
// failed ops counted at failedMs.
func sortedMs(samples []sample, kind opKind) []float64 {
	var out []float64
	for _, s := range samples {
		if s.kind != kind {
			continue
		}
		if s.failed {
			out = append(out, failedMs)
		} else {
			out = append(out, float64(s.ns)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailLadder is the set of tail percentiles the report may quote, in
// tenths of a percent.
var tailLadder = []int{999, 990, 950, 900}

// tailPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it; ok is false when even p90 has not.
func tailPercentile(n int) (p float64, ok bool) {
	for _, pm := range tailLadder {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10, true
		}
	}
	return 0, false
}

// median of an unsorted slice (mean of the middle two when even).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// histogram buckets latencies by powers of two of 1/8 ms; the key is the
// bucket's upper bound in ms.
func histogram(sorted []float64) map[string]int {
	h := make(map[string]int)
	for _, ms := range sorted {
		bound := 0.125
		for ms > bound {
			bound *= 2
		}
		h[strconv.FormatFloat(bound, 'g', -1, 64)]++
	}
	return h
}

// request is one traced request as the share arithmetic sees it: the
// client span, the server's own duration for the same trace ID, and the
// store stages the server recorded under it.
type request struct {
	clientNs int64
	serverNs int64
	stages   map[string]int64
}

// shareSum accumulates the per-request split of client time into client
// self time, server self time and store stages. The three groups sum to
// the client time of every request by construction:
//
//	client self = client span − server duration
//	server self = server duration − Σ stages
//
// Stage times are summed over parallel chunk workers, so Σ stages can
// exceed the server's wall time; the stages are then scaled down to fit
// it (server self 0) and the time cut is kept in overlapNs.
type shareSum struct {
	totalNs, clientSelfNs, serverSelfNs float64
	stageNs                             map[string]float64
	stageRawNs, overlapNs               float64
}

// add takes one request in and returns its client and server self times.
func (s *shareSum) add(r request) (clientSelfNs, serverSelfNs float64) {
	if s.stageNs == nil {
		s.stageNs = make(map[string]float64)
	}
	total := float64(r.clientNs)
	server := math.Min(float64(r.serverNs), total)
	var raw float64
	for _, ns := range r.stages {
		raw += float64(ns)
	}
	scale := 1.0
	if raw > server {
		scale = server / raw
	}
	s.totalNs += total
	s.clientSelfNs += total - server
	s.serverSelfNs += server - raw*scale
	s.stageRawNs += raw
	s.overlapNs += raw - raw*scale
	for name, ns := range r.stages {
		s.stageNs[name] += float64(ns) * scale
	}
	return total - server, server - raw*scale
}

// shares returns each group's share of the summed client time.
func (s *shareSum) shares() (client, server float64, stages map[string]float64) {
	stages = make(map[string]float64, len(s.stageNs))
	if s.totalNs == 0 {
		return 0, 0, stages
	}
	for name, ns := range s.stageNs {
		stages[name] = ns / s.totalNs
	}
	return s.clientSelfNs / s.totalNs, s.serverSelfNs / s.totalNs, stages
}

// unaccountedShare is the part of a request that neither a store stage
// nor the probed wire codec explains: what is left of the client's and
// the server's self time once the codec estimate is taken out.
func unaccountedShare(clientShare, serverShare, wireShare float64) float64 {
	return clientShare + serverShare - wireShare
}
