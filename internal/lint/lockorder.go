package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// LockOrder machine-checks the store's documented lock hierarchy. The
// partial order (see Store/arrayState doc comments and DESIGN.md
// "Static analysis") is:
//
//	reorgMu < writeMu < Store.mu < healthMu
//
// The analyzer builds a static acquisition graph from direct
// .Lock()/.RLock() calls, from lockArray call sites (the func-literal
// latch list is decoded and checked against the order), and from
// one-level-deep interprocedural summaries (a call made while holding
// L contributes edges L -> every lock the callee may acquire,
// transitively). It flags:
//
//   - an acquisition that violates the partial order (a lower- or
//     equal-ranked lock taken while a higher one is held)
//   - re-acquiring a lock already held on the same receiver
//     (self-deadlock)
//   - a lockArray latch list whose literal order descends
//   - cycles in the observed acquisition graph
//   - an I/O seam (a method call on fsio.FS or fsio.File, or one of
//     ioSeamFuncs) reached while Store.mu is held, directly or through
//     a callee's summary: mutators take the store lock only to snapshot
//     and to install
//
// Who holds what is DESIGN.md "Write path"'s table; the locksets
// fixture pins each mutator's latch set clean.
//
// Cross-instance acquisitions within the per-array latch family
// (Write's sorted-name protocol) are exempt: the rank order
// governs one array's latches; multi-array ordering is by name, which
// a rank cannot express. Escape hatch: //avlint:allow-lock <reason>.
var LockOrder = &Analyzer{
	Name:      "lockorder",
	Directive: "lock",
	Doc:       "lock acquisitions must follow the documented partial order and form no cycles",
	Applies: func(path string) bool {
		return PathSuffix(path, "internal/core")
	},
	Run: runLockOrder,
}

// lockOrderDoc is the canonical order, embedded in diagnostics so the
// fix is in the message.
const lockOrderDoc = "reorgMu < writeMu < Store.mu < healthMu"

// lockRank maps "Type.field" to its position in the partial order.
// Lower ranks are acquired first. Locks not listed here (the manifest
// latches, ...) are internal leaves outside the documented hierarchy
// and are ignored.
var lockRank = map[string]int{
	"arrayState.reorgMu": 0,
	"arrayState.writeMu": 10,
	"Store.mu":           30,
	"Store.healthMu":     60,
}

// ioSeamFuncs are the same-package methods that are I/O seams.
// readFrames is the one chunk read; it opens its files with the plain
// os package, outside the fsio seam.
var ioSeamFuncs = map[string]bool{
	"Store.readFrames": true,
	"Store.syncWrites": true,
	"Store.syncFile":   true,
	"Store.commitMeta": true,
	"manifest.commit":  true,
}

func lockShortName(key string) string {
	if i := strings.IndexByte(key, '.'); i >= 0 && !strings.HasPrefix(key, "Store.") {
		return key[i+1:]
	}
	return key
}

func arrayFamily(key string) bool { return strings.HasPrefix(key, "arrayState.") }

// lockEvent is one step in a function body's linearized execution.
type lockEvent struct {
	kind   int // 0 acquire, 1 release, 2 call, 3 fsio method call
	key    string
	io     string // the I/O seam this call is, if any (kinds 2 and 3)
	inst   string // receiver expression text ("" = unknown instance)
	callee types.Object
	pos    token.Pos
	cond   bool // statement sits on a conditional path (release only honored when false)
}

type heldLock struct {
	key  string
	inst string
	pos  token.Pos
	cond bool // acquired on a conditional path
}

type lockSummary struct {
	acquires   map[string]bool // every ranked lock the function may acquire, transitively
	heldAtExit []heldLock
	io         string // an I/O seam the function may reach, transitively ("" = none)
}

type lockEdge struct {
	from, to string
	pos      token.Pos
}

func runLockOrder(pass *Pass) {
	la := &lockAnalysis{pass: pass, info: pass.Pkg.Info}

	// Phase 1: linearize every function (and every function literal as
	// its own anonymous unit) into lock events.
	type unit struct {
		obj      types.Object // nil for literals
		name     string
		events   []lockEvent
		noExport bool // returns an unlock closure: held locks transfer to it
	}
	var units []unit
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			var lits []*ast.FuncLit
			events := la.linearize(fn.Body, &lits)
			units = append(units, unit{
				obj:      pass.Pkg.Info.Defs[fn.Name],
				name:     fn.Name.Name,
				events:   events,
				noExport: returnsFunc(fn),
			})
			for i := 0; i < len(lits); i++ {
				sub := la.linearize(lits[i].Body, &lits)
				units = append(units, unit{name: fn.Name.Name + " (func literal)", events: sub})
			}
		}
	}

	// Phase 2: fixpoint over call summaries. Every summary only grows
	// (locks acquired, locks held at exit, seam reached), so rounds stop
	// once one changes nothing.
	summaries := map[types.Object]*lockSummary{}
	for changed := true; changed; {
		changed = false
		for _, u := range units {
			if u.obj == nil {
				continue
			}
			acq, held, io := simulate(u.events, summaries, nil, nil, nil)
			if u.noExport {
				// a function returning a release closure (snapshot /
				// view acquisition pattern) hands its held locks to
				// that closure; the caller frees them via a call the
				// linear scan cannot pair, so exporting them would
				// fabricate phantom held state
				held = nil
			}
			if old := summaries[u.obj]; old == nil || len(old.acquires) != len(acq) || len(old.heldAtExit) != len(held) || old.io != io {
				changed = true
			}
			summaries[u.obj] = &lockSummary{acquires: acq, heldAtExit: held, io: io}
		}
	}

	// Phase 3: final pass — emit diagnostics and collect the global
	// acquisition graph for cycle detection.
	var edges []lockEdge
	for _, u := range units {
		reported := map[string]bool{}
		simulate(u.events, summaries, &edges, func(held heldLock, key, inst string, pos token.Pos) {
			dedup := held.key + "->" + key
			if reported[dedup] {
				return
			}
			reported[dedup] = true
			if held.key == key {
				pass.Reportf(pos, "re-acquires %s already held (acquired at %s) — self-deadlock", lockShortName(key), pass.Pkg.Fset.Position(held.pos))
				return
			}
			pass.Reportf(pos, "acquires %s while holding %s — violates the documented lock order (%s)", lockShortName(key), lockShortName(held.key), lockOrderDoc)
		}, func(reach string, pos token.Pos) {
			pass.Reportf(pos, "%s while holding Store.mu — mutators stage, sync and commit with the store lock released and take it only to snapshot and to install", reach)
		})
	}
	reportLockCycles(pass, edges)
}

// simulate walks one event list maintaining the held-lock set. It
// returns the transitive acquire set, the locks held at exit and the
// first I/O seam reached. When violate is non-nil, order violations are
// reported through it and every observed (held, acquired) pair is
// appended to edges; when ioHeld is non-nil, every seam reached while
// Store.mu is held is reported through it.
func simulate(events []lockEvent, summaries map[types.Object]*lockSummary, edges *[]lockEdge, violate func(held heldLock, key, inst string, pos token.Pos), ioHeld func(reach string, pos token.Pos)) (map[string]bool, []heldLock, string) {
	acquires := map[string]bool{}
	var held []heldLock
	io := ""
	// order records an edge from every held lock to key and reports the
	// descending ones; through a call (viaCall) the same lock is skipped,
	// its instance being unknown
	order := func(key, inst string, viaCall bool, pos token.Pos) {
		acquires[key] = true
		for _, h := range held {
			if edgeSuppressed(h, key, inst) || (viaCall && h.key == key) {
				continue
			}
			if edges != nil {
				*edges = append(*edges, lockEdge{from: h.key, to: key, pos: pos})
			}
			if lockRank[key] <= lockRank[h.key] && violate != nil {
				violate(h, key, inst, pos)
			}
		}
	}
	reachIO := func(e lockEvent) {
		seam, reach := e.io, "calls "+e.io
		if sum := summaries[e.callee]; seam == "" && sum != nil && sum.io != "" {
			seam, reach = sum.io, "calls "+e.callee.Name()+", which reaches "+sum.io+","
		}
		if io == "" {
			io = seam
		}
		for _, h := range held {
			if seam != "" && ioHeld != nil && h.key == "Store.mu" {
				ioHeld(reach, e.pos)
				return
			}
		}
	}

	for _, e := range events {
		if e.kind >= 2 {
			reachIO(e)
		}
		switch e.kind {
		case 0:
			order(e.key, e.inst, false, e.pos)
			held = append(held, heldLock{key: e.key, inst: e.inst, pos: e.pos, cond: e.cond})
		case 1:
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].key == e.key {
					// A conditional release of an unconditionally-held
					// lock is an early-return cleanup: the fall-through
					// path still holds it. A release paired with a
					// conditional acquire (same-branch lock/unlock, or
					// if/else arms) does clear.
					if !e.cond || held[i].cond {
						held = append(held[:i], held[i+1:]...)
					}
					break
				}
			}
		case 2:
			sum := summaries[e.callee]
			if sum == nil {
				break
			}
			for key := range sum.acquires {
				order(key, "", true, e.pos)
			}
			for _, h := range sum.heldAtExit {
				held = append(held, heldLock{key: h.key, inst: "", pos: e.pos, cond: e.cond})
			}
		}
	}
	// Export only pure acquisitions: a lock with ANY release event in
	// this body is managed here (possibly on branches the linear scan
	// cannot pair exactly) and must not leak into caller summaries as
	// phantom held state. Pure acquirers — lockWrite,
	// lockRewrite — have no release events and export correctly.
	released := map[string]bool{}
	for _, e := range events {
		if e.kind == 1 {
			released[e.key] = true
		}
	}
	exit := held[:0:0]
	for _, h := range held {
		if !released[h.key] {
			exit = append(exit, h)
		}
	}
	return acquires, exit, io
}

// edgeSuppressed implements the multi-instance exemption: within the
// per-array latch family, ordering across DIFFERENT arrayState
// instances is governed by the sorted-name protocol (Write), not
// by rank, so pairs with differing or unknown receivers are skipped —
// except a provably same-instance pair, which is always checked.
func edgeSuppressed(h heldLock, key, inst string) bool {
	if !arrayFamily(h.key) || !arrayFamily(key) {
		return false
	}
	if lockRank[key] > lockRank[h.key] {
		return false // ascending edges are fine to record regardless
	}
	sameInstance := h.inst != "" && h.inst == inst
	return !sameInstance
}

// lockAnalysis linearizes function bodies.
type lockAnalysis struct {
	pass *Pass
	info *types.Info
}

// linearize flattens a body into lock events in source order. cond
// marks statements on conditional paths (if/switch/select arms):
// releases there are early-return cleanups and do not clear the held
// set for the fall-through path. Function literals are collected for
// separate analysis, not inlined.
func (la *lockAnalysis) linearize(body *ast.BlockStmt, lits *[]*ast.FuncLit) []lockEvent {
	var events []lockEvent
	var deferred []lockEvent
	var walkStmt func(s ast.Stmt, cond bool)
	var walkExpr func(e ast.Expr, cond bool)

	walkExpr = func(e ast.Expr, cond bool) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				*lits = append(*lits, x)
				return false
			case *ast.CallExpr:
				if ev, ok := la.lockEventFor(x, cond); ok {
					// nested arguments first (evaluated before the call)
					for _, arg := range x.Args {
						walkExpr(arg, cond)
					}
					events = append(events, ev...)
					return false
				}
			}
			return true
		})
	}

	walkStmt = func(s ast.Stmt, cond bool) {
		switch x := s.(type) {
		case nil:
		case *ast.BlockStmt:
			for _, st := range x.List {
				walkStmt(st, cond)
			}
		case *ast.ExprStmt:
			walkExpr(x.X, cond)
		case *ast.AssignStmt:
			for _, r := range x.Rhs {
				walkExpr(r, cond)
			}
			for _, l := range x.Lhs {
				walkExpr(l, cond)
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				walkExpr(r, cond)
			}
		case *ast.IfStmt:
			walkStmt(x.Init, cond)
			walkExpr(x.Cond, cond)
			walkStmt(x.Body, true)
			walkStmt(x.Else, true)
		case *ast.ForStmt:
			walkStmt(x.Init, cond)
			walkExpr(x.Cond, cond)
			walkStmt(x.Body, cond)
			walkStmt(x.Post, cond)
		case *ast.RangeStmt:
			walkExpr(x.X, cond)
			walkStmt(x.Body, cond)
		case *ast.SwitchStmt:
			walkStmt(x.Init, cond)
			walkExpr(x.Tag, cond)
			walkStmt(x.Body, true)
		case *ast.TypeSwitchStmt:
			walkStmt(x.Init, cond)
			walkStmt(x.Assign, cond)
			walkStmt(x.Body, true)
		case *ast.SelectStmt:
			walkStmt(x.Body, true)
		case *ast.CaseClause:
			for _, e := range x.List {
				walkExpr(e, cond)
			}
			for _, st := range x.Body {
				walkStmt(st, true)
			}
		case *ast.CommClause:
			walkStmt(x.Comm, true)
			for _, st := range x.Body {
				walkStmt(st, true)
			}
		case *ast.DeferStmt:
			// a deferred unlock keeps the lock held for the rest of the
			// body (correct for edge generation); a deferred call's
			// effects land at function end
			if evs, ok := la.lockEventFor(x.Call, cond); ok {
				for i := range evs {
					evs[i].cond = false // defers always run
				}
				deferred = append(deferred, evs...)
			} else if lit, isLit := x.Call.Fun.(*ast.FuncLit); isLit {
				*lits = append(*lits, lit)
			}
			for _, arg := range x.Call.Args {
				walkExpr(arg, cond)
			}
		case *ast.GoStmt:
			if lit, isLit := x.Call.Fun.(*ast.FuncLit); isLit {
				*lits = append(*lits, lit)
			}
			for _, arg := range x.Call.Args {
				walkExpr(arg, cond)
			}
		case *ast.LabeledStmt:
			walkStmt(x.Stmt, cond)
		case *ast.DeclStmt:
			if gd, ok := x.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							walkExpr(v, cond)
						}
					}
				}
			}
		default:
			// SendStmt, IncDecStmt, Branch, Empty: scan for calls
			if n, ok := s.(ast.Node); ok {
				ast.Inspect(n, func(nn ast.Node) bool {
					if e, ok := nn.(ast.Expr); ok {
						walkExpr(e, cond)
						return false
					}
					return true
				})
			}
		}
	}

	for _, st := range body.List {
		walkStmt(st, false)
	}
	// releases inside deferred events run at exit, unconditionally
	return append(events, deferred...)
}

// lockEventFor classifies one call expression. It returns the events
// the call contributes: a ranked Lock/RLock/Unlock/RUnlock, the
// decoded latch list of a lockArray call site, or a plain same-package
// call (for summary propagation).
func (la *lockAnalysis) lockEventFor(call *ast.CallExpr, cond bool) ([]lockEvent, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		key, inst, ok := la.rankedLock(sel.X)
		if !ok {
			return nil, false
		}
		kind := 0
		if sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock" {
			kind = 1
		}
		return []lockEvent{{kind: kind, key: key, inst: inst, pos: call.Pos(), cond: cond}}, true
	case "lockArray":
		if latches, ok := la.latchListOf(call); ok {
			// The latches all belong to the ONE array this call resolves,
			// so within the call they are same-instance; across two
			// lockArray calls (Write's sorted-name loop) the
			// instances are distinct arrays. A per-call-site tag encodes
			// exactly that.
			tag := "lockArray@" + strconv.Itoa(int(call.Pos()))
			events := make([]lockEvent, 0, len(latches))
			prev := -1
			for _, l := range latches {
				if r := lockRank[l.key]; prev >= 0 && r <= prev {
					la.pass.Reportf(call.Pos(), "lockArray latch list acquires %s after a higher-ranked latch — the pick function must return latches in the documented order (%s)", lockShortName(l.key), lockOrderDoc)
				} else {
					prev = lockRank[l.key]
				}
				events = append(events, lockEvent{kind: 0, key: l.key, inst: tag, pos: call.Pos(), cond: cond})
			}
			return events, true
		}
	}
	if seam := la.fsioSeam(sel); seam != "" {
		return []lockEvent{{kind: 3, io: seam, pos: call.Pos(), cond: cond}}, true
	}
	// plain call: propagate via summary when it resolves to a
	// same-package function
	if obj := la.info.Uses[sel.Sel]; obj != nil {
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == la.pass.Pkg.Path {
			ev := lockEvent{kind: 2, callee: obj, pos: call.Pos(), cond: cond}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && namedOf(recv.Type()) != nil {
				if seam := namedOf(recv.Type()).Obj().Name() + "." + fn.Name(); ioSeamFuncs[seam] {
					ev.io = seam
				}
			}
			return []lockEvent{ev}, true
		}
	}
	return nil, false
}

// fsioSeam names a method call on fsio.FS or fsio.File
// ("fsio.File.Sync"), or returns "".
func (la *lockAnalysis) fsioSeam(sel *ast.SelectorExpr) string {
	named := namedOf(la.info.TypeOf(sel.X))
	if named == nil || named.Obj().Pkg() == nil || !PathSuffix(named.Obj().Pkg().Path(), "internal/fsio") {
		return ""
	}
	if name := named.Obj().Name(); name == "FS" || name == "File" {
		return "fsio." + name + "." + sel.Sel.Name
	}
	return ""
}

// namedOf is t's named type, through one pointer; nil if it has none.
func namedOf(t types.Type) *types.Named {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// rankedLock resolves expr ("st.writeMu", "s.mu", "h.s.healthMu") to a
// ranked lock key and its receiver text.
func (la *lockAnalysis) rankedLock(expr ast.Expr) (key, inst string, ok bool) {
	sel, isSel := expr.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	named := namedOf(la.info.TypeOf(sel.X))
	if named == nil {
		return "", "", false
	}
	key = named.Obj().Name() + "." + sel.Sel.Name
	if _, ranked := lockRank[key]; !ranked {
		return "", "", false
	}
	return key, types.ExprString(sel.X), true
}

// latchListOf decodes a lockArray call's func-literal pick argument:
// `func(st *arrayState) []*sync.Mutex { return
// []*sync.Mutex{&st.reorgMu, &st.writeMu} }` -> the ranked keys in
// literal order.
func (la *lockAnalysis) latchListOf(call *ast.CallExpr) ([]heldLock, bool) {
	if len(call.Args) < 2 {
		return nil, false
	}
	lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
	if !ok {
		return nil, false
	}
	var latches []heldLock
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		comp, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		for _, el := range comp.Elts {
			un, ok := el.(*ast.UnaryExpr)
			if !ok || un.Op != token.AND {
				continue
			}
			if key, inst, ok := la.rankedLock(un.X); ok {
				latches = append(latches, heldLock{key: key, inst: inst})
			}
		}
		return false
	})
	return latches, len(latches) > 0
}

// reportLockCycles finds strongly-connected components in the observed
// acquisition graph and reports each cycle once.
func reportLockCycles(pass *Pass, edges []lockEdge) {
	adj := map[string]map[string]token.Pos{}
	for _, e := range edges {
		if e.from == e.to {
			continue // the re-acquire diagnostic already covers self-loops
		}
		if adj[e.from] == nil {
			adj[e.from] = map[string]token.Pos{}
		}
		if _, dup := adj[e.from][e.to]; !dup {
			adj[e.from][e.to] = e.pos
		}
	}
	var nodes []string
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	reported := map[string]bool{}
	for _, start := range nodes {
		if cycle := findCycle(adj, start); cycle != nil {
			names := make([]string, len(cycle))
			for i, k := range cycle {
				names[i] = lockShortName(k)
			}
			sig := strings.Join(canonicalCycle(names), " -> ")
			if reported[sig] {
				continue
			}
			reported[sig] = true
			pos := adj[cycle[len(cycle)-1]][cycle[0]]
			pass.Reportf(pos, "lock-order cycle: %s -> %s", strings.Join(names, " -> "), names[0])
		}
	}
}

// findCycle returns a cycle through start, if one exists, as the node
// sequence [start, ..., last] with an edge last->start.
func findCycle(adj map[string]map[string]token.Pos, start string) []string {
	var path []string
	onPath := map[string]bool{}
	var dfs func(n string) []string
	visited := map[string]bool{}
	dfs = func(n string) []string {
		path = append(path, n)
		onPath[n] = true
		var tos []string
		for to := range adj[n] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			if to == start {
				out := append([]string(nil), path...)
				return out
			}
			if onPath[to] || visited[to] {
				continue
			}
			if c := dfs(to); c != nil {
				return c
			}
		}
		path = path[:len(path)-1]
		onPath[n] = false
		visited[n] = true
		return nil
	}
	return dfs(start)
}

// returnsFunc reports whether fn declares a func-typed result (the
// release-closure convention).
func returnsFunc(fn *ast.FuncDecl) bool {
	if fn.Type.Results == nil {
		return false
	}
	for _, fld := range fn.Type.Results.List {
		if _, ok := fld.Type.(*ast.FuncType); ok {
			return true
		}
	}
	return false
}

// canonicalCycle rotates a cycle to start at its smallest element so
// equivalent cycles dedupe.
func canonicalCycle(c []string) []string {
	min := 0
	for i := range c {
		if c[i] < c[min] {
			min = i
		}
	}
	out := make([]string, 0, len(c))
	out = append(out, c[min:]...)
	out = append(out, c[:min]...)
	return out
}
