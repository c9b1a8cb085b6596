package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"arrayvers/internal/trace"
)

// MultiInsert is one put of a Write: payloads for one array.
type MultiInsert struct {
	Array    string
	Payloads []Payload
}

// Write adds versions to one or several arrays under ONE commit point: a
// single manifest record, appended and fsynced once, makes every put
// durable together, so either every array shows its new versions or none
// does — after a crash too. It returns each put's new version ids, in
// put order and payload order. An array may appear in one put only.
//
// Payloads of one put are resolved in order, so later members
// delta-encode against earlier ones when that is smaller, and each
// member's lineage parent is its predecessor; the first member's is
// the array's newest live version, since writes to one array commit
// one at a time. Delta-list payloads must reference committed
// versions. ctx is honored while the payloads are staged; once staging
// is done the commit runs to completion, so a ctx error means no
// version was created anywhere.
func (s *Store) Write(ctx context.Context, puts []MultiInsert) ([][]int, error) {
	if len(puts) == 0 {
		return nil, fmt.Errorf("core: write has no puts")
	}
	order := make([]int, len(puts)) // put indices, sorted by array name below
	seen := make(map[string]bool, len(puts))
	for i, p := range puts {
		switch {
		case p.Array == "":
			return nil, fmt.Errorf("core: write names an empty array")
		case len(p.Payloads) == 0:
			return nil, fmt.Errorf("core: write to array %q has no payloads", p.Array)
		case seen[p.Array]:
			return nil, fmt.Errorf("core: write names array %q twice", p.Array)
		}
		if err := s.writeGate(p.Array); err != nil {
			return nil, err
		}
		seen[p.Array], order[i] = true, i
	}
	// every writer takes its write latches in name order, so writes over
	// overlapping array sets cannot deadlock; the wait for them is this
	// write's queue_wait. Before it, each put's dense planes are cut into
	// its array's chunks — work that needs no base, so no latch.
	sort.Slice(order, func(a, b int) bool { return puts[order[a]].Array < puts[order[b]].Array })
	cuts := make([]*payloadCut, len(puts))
	cutStart := time.Now()
	for k, i := range order {
		s.mu.RLock()
		st := s.arrays[puts[i].Array]
		s.mu.RUnlock()
		cuts[k] = s.cutPayloads(ctx, st, puts[i].Payloads)
	}
	s.observeCommit(trace.FromContext(ctx), StageCut, cutStart, 0)
	sts := make([]*arrayState, 0, len(puts))
	waitStart := time.Now()
	for _, i := range order {
		st, err := s.lockWrite(puts[i].Array)
		if err != nil {
			return nil, err
		}
		defer st.writeMu.Unlock()
		sts = append(sts, st)
	}
	s.observeCommit(trace.FromContext(ctx), StageQueueWait, waitStart, 0)
	byName, err := s.write(ctx, sts, cuts, "insert")
	if err != nil {
		return nil, err
	}
	ids := make([][]int, len(puts))
	for k, i := range order {
		ids[i] = byName[k]
	}
	return ids, nil
}

// Insert adds one version to the named array and returns its ID
// (temporal versions are numbered 1, 2, ... as in AQL's Example@1).
func (s *Store) Insert(name string, p Payload) (int, error) {
	ids, err := s.Write(context.Background(), []MultiInsert{{Array: name, Payloads: []Payload{p}}})
	if err != nil {
		return 0, err
	}
	return ids[0][0], nil
}

// InsertMulti is Write keyed by array name.
func (s *Store) InsertMulti(puts []MultiInsert) (map[string][]int, error) {
	ids, err := s.Write(context.Background(), puts)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]int, len(puts))
	for i, p := range puts {
		out[p.Array] = ids[i]
	}
	return out, nil
}
