package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerifyHealthyStore(t *testing.T) {
	s := testStore(t, smallOpts())
	if err := s.CreateArray(schema2D("V", 32)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(5, 32, 37)
	for _, v := range versions {
		if _, err := s.Insert("V", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Verify("V")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("healthy store has problems: %v", rep.Problems)
	}
	if rep.Versions != 5 || rep.Chunks == 0 {
		t.Fatalf("report: %+v", rep)
	}
	// linear insert chain: version 5 depth must be 5
	if rep.ChainDepths[5] != 5 || rep.ChainDepths[1] != 1 {
		t.Fatalf("chain depths: %v", rep.ChainDepths)
	}
	if rep.DanglingBytes != 0 {
		t.Fatalf("dangling bytes in fresh store: %d", rep.DanglingBytes)
	}
}

func TestVerifyDetectsDanglingAfterDelete(t *testing.T) {
	s := testStore(t, smallOpts())
	if err := s.CreateArray(schema2D("VD", 32)); err != nil {
		t.Fatal(err)
	}
	for _, v := range evolvingVersions(4, 32, 38) {
		if _, err := s.Insert("VD", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DeleteVersion("VD", 2); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Verify("VD")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("post-delete store has problems: %v", rep.Problems)
	}
	if rep.DanglingBytes == 0 {
		t.Fatal("delete left no dangling bytes?")
	}
	if err := s.Compact("VD"); err != nil {
		t.Fatal(err)
	}
	rep, _ = s.Verify("VD")
	if rep.DanglingBytes != 0 {
		t.Fatalf("compact left %d dangling bytes", rep.DanglingBytes)
	}
}

func TestVerifyDetectsCorruptMetadata(t *testing.T) {
	s := testStore(t, smallOpts())
	if err := s.CreateArray(schema2D("VC", 32)); err != nil {
		t.Fatal(err)
	}
	for _, v := range evolvingVersions(3, 32, 39) {
		if _, err := s.Insert("VC", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	// sabotage the metadata: point version 3's chunks at version 99
	for _, chunks := range s.arrays["VC"].Versions[2].Chunks {
		for k, e := range chunks {
			if e.Base >= 0 {
				e.Base = 99
				chunks[k] = e
			}
		}
	}
	rep, err := s.Verify("VC")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("verify missed dangling delta base")
	}
}

func TestVerifyMissingArray(t *testing.T) {
	s := testStore(t, smallOpts())
	if _, err := s.Verify("nope"); err == nil {
		t.Fatal("verify of missing array accepted")
	}
}

// TestVerifySeesCorruptFrameUnderWarmCache: Verify reads every frame from
// disk, so a flipped payload byte in the tip's frame is reported even
// while the tip's chunks sit decoded in the chunk cache.
func TestVerifySeesCorruptFrameUnderWarmCache(t *testing.T) {
	s := testStore(t, concurrencyOpts())
	defer s.Close()
	if err := s.CreateArray(schema2D("VC", 32)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(3, 32, 39)
	for _, v := range versions {
		if _, err := s.Insert("VC", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	tip := len(versions)
	for i := 0; i < 2; i++ {
		if _, err := s.Select("VC", tip); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.CacheHits == 0 {
		t.Fatalf("the tip's selects hit no cached chunk: %+v", st)
	}
	s.mu.RLock()
	dir := s.arrays["VC"].chunksDir()
	vm, err := s.arrays["VC"].version(tip)
	s.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	var e chunkEntry
	for _, e = range vm.Chunks["A"] {
		break
	}
	path := filepath.Join(dir, e.File)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[e.Offset+frameLen(e.Length)-1] ^= 1 // the frame's last payload byte
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Verify("VC")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("verify reports clean with a corrupt frame behind a warm cache")
	}
	if !strings.Contains(strings.Join(rep.Problems, "\n"), "checksum") {
		t.Fatalf("problems name no checksum error: %v", rep.Problems)
	}
}
