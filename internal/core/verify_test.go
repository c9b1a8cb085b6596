package core

import "testing"

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
