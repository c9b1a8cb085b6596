package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"arrayvers/internal/trace"
)

// MultiInsert names one array's payload batch within an InsertMulti
// call.
type MultiInsert struct {
	Array    string
	Payloads []Payload
}

// InsertMulti inserts payload batches into several arrays under ONE
// commit point: a single manifest record, appended and fsynced once,
// makes every member durable together. Either every array shows its new
// versions or none does — after a crash too. The result maps each array
// name to the version ids its payloads were assigned, in payload order.
func (s *Store) InsertMulti(batches []MultiInsert) (map[string][]int, error) {
	return s.InsertMultiCtx(context.Background(), batches)
}

// InsertMultiCtx is InsertMulti honoring ctx while the payloads are
// staged. Once staging is done the commit runs to completion:
// cancellation mid-commit could not undo the shared manifest append
// anyway, so a ctx error from this method means no version was created
// anywhere.
func (s *Store) InsertMultiCtx(ctx context.Context, batches []MultiInsert) (map[string][]int, error) {
	if len(batches) == 0 {
		return nil, fmt.Errorf("core: InsertMulti needs at least one batch")
	}
	byName := make(map[string][]Payload, len(batches))
	names := make([]string, 0, len(batches))
	for _, b := range batches {
		if b.Array == "" {
			return nil, fmt.Errorf("core: InsertMulti batch with an empty array name")
		}
		if len(b.Payloads) == 0 {
			return nil, fmt.Errorf("core: InsertMulti batch for array %q has no payloads", b.Array)
		}
		if _, dup := byName[b.Array]; dup {
			return nil, fmt.Errorf("core: InsertMulti names array %q twice", b.Array)
		}
		byName[b.Array] = b.Payloads
		names = append(names, b.Array)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, n := range names {
		if err := s.writeGate(n); err != nil {
			return nil, err
		}
	}

	// Acquire every array's commit-latch set in sorted-name order.
	// Multi-array lock ordering only matters among InsertMulti callers
	// — every other path latches a single array and never waits on a
	// second one while holding the first — so the global name order
	// makes the acquisition deadlock-free.
	sort.Strings(names)
	waitStart := time.Now()
	sts := make([]*arrayState, 0, len(names))
	defer func() {
		for i := len(sts) - 1; i >= 0; i-- {
			sts[i].writeMu.Unlock()
			sts[i].commitMu.Unlock()
		}
	}()
	ps := make([][]Payload, 0, len(names))
	for _, n := range names {
		st, err := s.lockCommit(n)
		if err != nil {
			return nil, err
		}
		sts = append(sts, st)
		ps = append(ps, byName[n])
	}
	// the latch wait (including the stragglers committed on the way) is
	// this request's time in the commit queue
	wait := time.Since(waitStart)
	s.prof.observeCommit(StageQueueWait, wait, 0)
	trace.FromContext(ctx).Observe(StageQueueWait, wait, 0)

	ids, err := s.commitLatched(ctx, sts, ps, "insert")
	if err != nil {
		return nil, err
	}
	out := make(map[string][]int, len(names))
	for i, n := range names {
		out[n] = ids[i]
	}
	return out, nil
}
