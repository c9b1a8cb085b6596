package aql

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arrayvers/internal/array"
	"arrayvers/internal/core"
)

func testEngine(t *testing.T) *Engine {
	t.Helper()
	opts := core.DefaultOptions()
	opts.ChunkBytes = 1 << 12
	s, err := core.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(s)
}

func mustExec(t *testing.T, e *Engine, stmt string) Result {
	t.Helper()
	r, err := e.Execute(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return r
}

// writeArrayFile marshals a dense array for LOAD.
func writeArrayFile(t *testing.T, dir string, name string, vals []int64) string {
	t.Helper()
	d := array.MustDense(array.Int32, []int64{3, 3})
	for i, v := range vals {
		d.SetBits(int64(i), v)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, array.MarshalDense(d), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAppendixAWorkflow(t *testing.T) {
	// replays the Appendix A example session end to end
	e := testEngine(t)
	dir := t.TempDir()
	mustExec(t, e, "CREATE UPDATABLE ARRAY Example ( A::INTEGER ) [ I=0:2, J=0:2 ];")

	v1 := writeArrayFile(t, dir, "v1.dat", []int64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	v2 := writeArrayFile(t, dir, "v2.dat", []int64{2, 4, 6, 8, 10, 12, 14, 16, 18})
	v3 := writeArrayFile(t, dir, "v3.dat", []int64{3, 6, 9, 12, 15, 18, 21, 24, 27})

	mustExec(t, e, "LOAD Example FROM '"+v1+"';")
	r := mustExec(t, e, "VERSIONS(Example);")
	if r.String() != "[('Example@1')]" {
		t.Fatalf("VERSIONS after first load: %s", r.String())
	}
	mustExec(t, e, "LOAD Example FROM '"+v2+"';")
	mustExec(t, e, "LOAD Example FROM '"+v3+"';")
	r = mustExec(t, e, "VERSIONS(Example)")
	if r.String() != "[('Example@1'),('Example@2'),('Example@3')]" {
		t.Fatalf("VERSIONS: %s", r.String())
	}

	// SELECT * FROM Example@1
	r = mustExec(t, e, "SELECT * FROM Example@1;")
	want := "[\n[(1),(2),(3)]\n[(4),(5),(6)]\n[(7),(8),(9)]\n]"
	if r.String() != want {
		t.Fatalf("select v1:\n%s\nwant:\n%s", r.String(), want)
	}

	// SELECT * FROM Example@* returns a 3D stack
	r = mustExec(t, e, "SELECT * FROM Example@*;")
	if r.Dense == nil || r.Dense.NDim() != 3 || r.Dense.Shape()[0] != 3 {
		t.Fatalf("@* shape: %v", r.Dense.Shape())
	}
	if r.Dense.BitsAt([]int64{2, 2, 2}) != 27 {
		t.Fatal("@* content wrong")
	}

	// the appendix SUBSAMPLE example: coordinates 0-1 on X, 1-2 on Y,
	// versions 2-3 (positions 1-2 on the time axis per its output)
	r = mustExec(t, e, "SELECT * FROM SUBSAMPLE (Example@*, 0, 1, 1, 2, 1, 2);")
	if r.Dense == nil || r.Dense.NDim() != 3 {
		t.Fatal("SUBSAMPLE must return a 3D array")
	}
	sh := r.Dense.Shape()
	if sh[0] != 2 || sh[1] != 2 || sh[2] != 2 {
		t.Fatalf("SUBSAMPLE shape %v, want [2 2 2]", sh)
	}
	// first slab = version 2's region: rows 0-1, cols 1-2 of v2
	if r.Dense.BitsAt([]int64{0, 0, 0}) != 4 || r.Dense.BitsAt([]int64{0, 1, 1}) != 12 {
		t.Fatalf("SUBSAMPLE slab 0 wrong")
	}
	if r.Dense.BitsAt([]int64{1, 0, 0}) != 6 || r.Dense.BitsAt([]int64{1, 1, 1}) != 18 {
		t.Fatalf("SUBSAMPLE slab 1 wrong")
	}

	// BRANCH(Example@2 NewBranch); LOAD into the branch
	mustExec(t, e, "BRANCH(Example@2 NewBranch);")
	r = mustExec(t, e, "SELECT * FROM NewBranch@1;")
	if r.Dense.BitsAt([]int64{0, 0}) != 2 {
		t.Fatal("branch content wrong")
	}
	mustExec(t, e, "LOAD NewBranch FROM '"+v1+"';")
	r = mustExec(t, e, "VERSIONS(NewBranch);")
	if !strings.Contains(r.String(), "NewBranch@2") {
		t.Fatalf("branch versions: %s", r.String())
	}
	// source unaffected
	r = mustExec(t, e, "VERSIONS(Example);")
	if strings.Contains(r.String(), "@4") {
		t.Fatal("branch polluted source array")
	}
}

func TestSelectByDate(t *testing.T) {
	e := testEngine(t)
	dir := t.TempDir()
	mustExec(t, e, "CREATE UPDATABLE ARRAY D ( A::INTEGER ) [ I=0:2, J=0:2 ]")
	f := writeArrayFile(t, dir, "v.dat", []int64{1, 1, 1, 1, 1, 1, 1, 1, 1})
	mustExec(t, e, "LOAD D FROM '"+f+"'")
	// versions are committed "now"; selecting today's date must find it
	r, err := e.Execute("SELECT * FROM D@'1-5-2011';")
	if err == nil {
		_ = r
		t.Fatal("date before history should fail")
	}
}

func TestSubsampleSingleVersion(t *testing.T) {
	e := testEngine(t)
	dir := t.TempDir()
	mustExec(t, e, "CREATE UPDATABLE ARRAY S ( A::INTEGER ) [ I=0:2, J=0:2 ]")
	f := writeArrayFile(t, dir, "v.dat", []int64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	mustExec(t, e, "LOAD S FROM '"+f+"'")
	r := mustExec(t, e, "SELECT * FROM SUBSAMPLE(S@1, 1, 2, 0, 1)")
	if r.Dense == nil || r.Dense.NDim() != 2 {
		t.Fatal("2D subsample wrong")
	}
	if r.Dense.BitsAt([]int64{0, 0}) != 4 || r.Dense.BitsAt([]int64{1, 1}) != 8 {
		t.Fatalf("subsample content wrong: %s", r.String())
	}
}

func TestMultiAttributeCreate(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE UPDATEABLE ARRAY M ( A::INTEGER, B::DOUBLE ) [I=0:2, J=0:2, K=1:15]")
	info, err := e.store.Info("M")
	if err != nil {
		t.Fatal(err)
	}
	sch := info.Schema
	if len(sch.Attrs) != 2 || sch.Attrs[1].Type != array.Float64 {
		t.Fatalf("schema attrs: %+v", sch.Attrs)
	}
	if len(sch.Dims) != 3 || sch.Dims[2].Size() != 15 {
		t.Fatalf("schema dims: %+v", sch.Dims)
	}
}

func TestDropAndList(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE UPDATABLE ARRAY A1 ( A::INTEGER ) [I=0:1]")
	mustExec(t, e, "CREATE UPDATABLE ARRAY A2 ( A::INTEGER ) [I=0:1]")
	r := mustExec(t, e, "LIST ARRAYS")
	if len(r.Names) != 2 {
		t.Fatalf("list: %v", r.Names)
	}
	mustExec(t, e, "DROP ARRAY A1")
	r = mustExec(t, e, "LIST ARRAYS")
	if len(r.Names) != 1 || r.Names[0] != "A2" {
		t.Fatalf("list after drop: %v", r.Names)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FROB Example",
		"CREATE ARRAY ( A::INTEGER ) [I=0:2]",
		"CREATE ARRAY X ( A::BOGUS ) [I=0:2]",
		"CREATE ARRAY X ( A::INTEGER ) [I=2:0]",
		"SELECT FROM X@1",
		"SELECT * FROM X@",
		"SELECT * FROM X@0",
		"SELECT * FROM X@'not-a-date'",
		"LOAD X FROM file",
		"VERSIONS X",
		"BRANCH(X@1)",
		"SELECT * FROM X@1 garbage",
		"SELECT * FROM X@1; extra",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("parse accepted %q", src)
		}
	}
}

func TestExecErrors(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Execute("SELECT * FROM Missing@1"); err == nil {
		t.Error("select on missing array accepted")
	}
	if _, err := e.Execute("LOAD Missing FROM '/nonexistent'"); err == nil {
		t.Error("load of missing file accepted")
	}
	mustExec(t, e, "CREATE UPDATABLE ARRAY E ( A::INTEGER ) [I=0:2, J=0:2]")
	if _, err := e.Execute("SELECT * FROM SUBSAMPLE(E@*, 0, 1)"); err == nil {
		t.Error("wrong range count accepted")
	}
	if _, err := e.Execute("CREATE UPDATABLE ARRAY E ( A::INTEGER ) [I=0:2]"); err == nil {
		t.Error("duplicate create accepted")
	}
}

func TestLexer(t *testing.T) {
	toks, err := lex("SELECT * FROM X@'1-5-2011';")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokIdent, tokPunct, tokIdent, tokIdent, tokPunct, tokString, tokPunct, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("%d tokens", len(toks))
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Fatalf("token %d kind %d, want %d", i, toks[i].kind, k)
		}
	}
	if _, err := lex("bad $ char"); err == nil {
		t.Error("lexer accepted $")
	}
	if _, err := lex("'unterminated"); err == nil {
		t.Error("lexer accepted unterminated string")
	}
}

func TestMergeStatement(t *testing.T) {
	e := testEngine(t)
	dir := t.TempDir()
	mustExec(t, e, "CREATE UPDATABLE ARRAY M1 ( A::INTEGER ) [I=0:2, J=0:2]")
	mustExec(t, e, "CREATE UPDATABLE ARRAY M2 ( A::INTEGER ) [I=0:2, J=0:2]")
	f1 := writeArrayFile(t, dir, "m1.dat", []int64{1, 1, 1, 1, 1, 1, 1, 1, 1})
	f2 := writeArrayFile(t, dir, "m2.dat", []int64{2, 2, 2, 2, 2, 2, 2, 2, 2})
	mustExec(t, e, "LOAD M1 FROM '"+f1+"'")
	mustExec(t, e, "LOAD M2 FROM '"+f2+"'")
	mustExec(t, e, "MERGE(M1@1, M2@1 Combined);")
	r := mustExec(t, e, "VERSIONS(Combined)")
	if len(r.Names) != 2 {
		t.Fatalf("merged versions: %v", r.Names)
	}
	r = mustExec(t, e, "SELECT * FROM Combined@2")
	if r.Dense.Bits(0) != 2 {
		t.Fatal("merged content wrong")
	}
	if _, err := e.Execute("MERGE(M1@1 OnlyOne)"); err == nil {
		t.Error("single-parent merge accepted")
	}
	if _, err := e.Execute("MERGE(M1@1, M2@1)"); err == nil {
		t.Error("merge without new name accepted")
	}
}

func TestDeleteVersionStatement(t *testing.T) {
	e := testEngine(t)
	dir := t.TempDir()
	mustExec(t, e, "CREATE UPDATABLE ARRAY DV ( A::INTEGER ) [I=0:2, J=0:2]")
	f := writeArrayFile(t, dir, "v.dat", []int64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	mustExec(t, e, "LOAD DV FROM '"+f+"'")
	mustExec(t, e, "LOAD DV FROM '"+f+"'")
	mustExec(t, e, "DELETE VERSION DV@1;")
	r := mustExec(t, e, "VERSIONS(DV)")
	if len(r.Names) != 1 || r.Names[0] != "DV@2" {
		t.Fatalf("versions after delete: %v", r.Names)
	}
	if _, err := e.Execute("DELETE VERSION DV@99"); err == nil {
		t.Error("delete of missing version accepted")
	}
}

func TestInfoStatement(t *testing.T) {
	e := testEngine(t)
	dir := t.TempDir()
	mustExec(t, e, "CREATE UPDATABLE ARRAY IN1 ( A::INTEGER ) [I=0:2, J=0:2]")
	f := writeArrayFile(t, dir, "v.dat", []int64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	mustExec(t, e, "LOAD IN1 FROM '"+f+"'")
	r := mustExec(t, e, "INFO(IN1)")
	if !strings.Contains(r.String(), "1 versions") {
		t.Fatalf("info output: %s", r.String())
	}
	if _, err := e.Execute("INFO(Missing)"); err == nil {
		t.Error("info of missing array accepted")
	}
}
