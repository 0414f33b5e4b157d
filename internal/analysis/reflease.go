package analysis

// reflease: flow-sensitive pooled-buffer lifetime checking.
//
// Two cooperating analyses run over every function:
//
//  1. Local acquisition tracking: a local assigned from
//     netsim.NewPooledPacket, Node.NewPacket or wire.GetBuf owns one
//     reference. Retain
//     adds one, Release/PutBuf drops one, a deferred release counts at
//     exit, and passing the value to a callee applies that callee's
//     ownership summary (consume / borrow / unknown). A normal-return
//     path on which the definite count stays positive is a leak.
//
//  2. Carrier parameters: a parameter of a configured carrier type
//     (sctp.Message, whose Data field is a wire-pool buffer) moves
//     ownership by convention. If some return path definitely consumes
//     the carrier (recycles Data, stores it, forwards it to a consuming
//     callee or callback) while another definitely drops it, the
//     dropping path leaks the pooled payload.
//
// Reporting is definite-only, in the go vet tradition: a merge of
// different reference counts, an escape (store, alias, closure
// capture), or an unknown callee silences the variable rather than
// guessing. Loops with data-dependent Retain/Release balancing
// (netsim's multicast fan-out) therefore stay silent; straight-line
// drops on error and early-return paths do not.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// poolKind classifies a callee's effect on a pooled value.
type poolKind int

const (
	poolNone    poolKind = iota
	poolAcquire          // returns a fresh owned buffer/packet
	poolRelease          // consumes one reference (receiver or arg 0)
	poolRetain           // adds one reference (receiver)
)

// poolKindOf classifies module functions that create or consume pooled
// references.
func (m *Module) poolKindOf(fn *types.Func) poolKind {
	if fn == nil || fn.Pkg() == nil {
		return poolNone
	}
	rel, ok := m.Rel(fn.Pkg().Path())
	if !ok {
		return poolNone
	}
	recvPkg, recvType := methodOn(fn)
	switch {
	case rel == "internal/wire" && recvType == "":
		switch fn.Name() {
		case "GetBuf":
			return poolAcquire
		case "PutBuf":
			return poolRelease
		}
	case rel == "internal/netsim" && recvType == "":
		if fn.Name() == "NewPooledPacket" {
			return poolAcquire
		}
	case recvType == "Packet" || recvType == "Node":
		if prel, ok := m.Rel(recvPkg); ok && prel == "internal/netsim" {
			switch fn.Name() {
			case "NewPacket":
				return poolAcquire
			case "Release":
				return poolRelease
			case "Retain":
				return poolRetain
			}
		}
	}
	return poolNone
}

// carrier describes a struct type whose instances carry a pooled buffer
// in a named field and move its ownership by convention.
type carrier struct {
	pkgRel string
	typ    string
	field  string
}

var carriers = []carrier{
	{pkgRel: "internal/sctp", typ: "Message", field: "Data"},
}

// carrierOf returns the carrier config for a type (through pointers),
// or nil.
func (m *Module) carrierOf(t types.Type) *carrier {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return nil
	}
	rel, ok := m.Rel(named.Obj().Pkg().Path())
	if !ok {
		return nil
	}
	for i := range carriers {
		if carriers[i].pkgRel == rel && carriers[i].typ == named.Obj().Name() {
			return &carriers[i]
		}
	}
	return nil
}

// namedOf unwraps pointers and aliases down to the named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Alias:
			t = types.Unalias(x)
		case *types.Named:
			return x
		default:
			return nil
		}
	}
}

// methodOn returns the defining package path and bare type name of a
// method's receiver, or ("", "") for plain functions.
func methodOn(fn *types.Func) (pkgPath, typeName string) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	named := namedOf(sig.Recv().Type())
	if named == nil || named.Obj().Pkg() == nil {
		return "", ""
	}
	return named.Obj().Pkg().Path(), named.Obj().Name()
}

// moduleFunc reports whether fn is declared inside this module.
func moduleFunc(m *Module, fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	_, ok := m.Rel(fn.Pkg().Path())
	return ok
}

// probeFieldCall reports whether call invokes a func stored in a field
// of a Probe/Observer struct — the oracle-hook convention: hooks
// observe, they never take ownership of what they are shown.
func probeFieldCall(p *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if s, ok := p.Info.Selections[sel]; ok {
		if _, isMethod := s.Obj().(*types.Func); isMethod {
			return false
		}
	}
	tv, ok := p.Info.Types[sel.X]
	if !ok {
		return false
	}
	named := namedOf(tv.Type)
	if named == nil {
		return false
	}
	name := named.Obj().Name()
	return strings.Contains(name, "Probe") || strings.Contains(name, "Observer")
}

// --- ownership summaries (carrier parameters, callee effects) --------

// ownEffect is a callee's summarized effect on one pooled parameter.
type ownEffect int

const (
	ownUnknown ownEffect = iota // mixed or unanalyzable: caller stops tracking
	ownBorrow                   // never consumes: obligation stays with the caller
	ownConsume                  // consumes on every normal path: obligation discharged
)

// ownState is the per-path state of one owned value: held (obligation
// outstanding), consumed (discharged), or top (paths disagree /
// aliased — unknown).
type ownState int8

const (
	ownStateHeld ownState = iota
	ownStateConsumed
	ownStateTop
)

func joinOwn(a, b ownState) ownState {
	if a == b {
		return a
	}
	return ownStateTop
}

// ownEffectOf computes (memoized) the ownership summary of fn for the
// parameter at index param (receiver = -1): what happens to a pooled
// value the caller passes there. Functions without source and recursive
// cycles summarize as unknown.
func (m *Module) ownEffectOf(fn *types.Func, param int) ownEffect {
	key := sumKey{fn, param}
	if eff, ok := m.own[key]; ok {
		return eff
	}
	if m.ownBusy[key] {
		return ownUnknown
	}
	src, ok := m.funcDecl(fn)
	if !ok {
		return ownUnknown
	}
	obj := paramObjects(src.pkg, src.decl)[param]
	if obj == nil {
		return ownUnknown
	}
	m.ownBusy[key] = true
	cfg := BuildCFG(src.decl.Body)
	_, out := ForwardSolve(cfg, m.ownSpec(src.pkg, obj))
	delete(m.ownBusy, key)

	sawExit := false
	allConsumed, allHeld := true, true
	for _, pred := range cfg.Exit.Preds {
		st, ok := out[pred]
		if !ok {
			continue
		}
		sawExit = true
		if st != ownStateConsumed {
			allConsumed = false
		}
		if st != ownStateHeld {
			allHeld = false
		}
	}
	eff := ownUnknown
	switch {
	case !sawExit: // no normal exit (infinite loop / always panics)
	case allConsumed:
		eff = ownConsume
	case allHeld:
		eff = ownBorrow
	}
	m.own[key] = eff
	return eff
}

func (m *Module) ownSpec(p *Package, target types.Object) DataflowSpec[ownState] {
	return DataflowSpec[ownState]{
		Entry: ownStateHeld,
		Join:  joinOwn,
		Transfer: func(b *Block, in ownState) ownState {
			w := &ownWalk{m: m, p: p, target: target, st: in}
			for _, n := range b.Nodes {
				w.node(n)
			}
			return w.st
		},
		Equal: func(a, b ownState) bool { return a == b },
	}
}

// ownWalk applies the ownership events of CFG nodes to one target.
type ownWalk struct {
	m      *Module
	p      *Package
	target types.Object
	st     ownState
}

func (w *ownWalk) isTarget(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && w.p.Info.Uses[id] == w.target
}

// isTargetField matches the carrier's pooled payload: m.Data.
func (w *ownWalk) isTargetField(e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && w.p.Info.Uses[id] == w.target
}

func (w *ownWalk) consume() {
	if w.st == ownStateConsumed {
		w.st = ownStateTop // double consume: ownership story inconsistent
		return
	}
	if w.st == ownStateHeld {
		w.st = ownStateConsumed
	}
}

func (w *ownWalk) node(n ast.Node) {
	if w.st == ownStateTop {
		return
	}
	handled := make(map[ast.Node]bool)
	ast.Inspect(n, func(x ast.Node) bool {
		if x == nil {
			return false
		}
		if handled[x] {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			// A closure capturing the target may consume it later.
			ast.Inspect(x.Body, func(y ast.Node) bool {
				if e, ok := y.(ast.Expr); ok && w.isTarget(e) {
					w.st = ownStateTop
				}
				return true
			})
			return false
		case *ast.CallExpr:
			w.call(x, handled)
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if !w.isTarget(rhs) || i >= len(x.Lhs) {
					continue
				}
				if _, plain := ast.Unparen(x.Lhs[i]).(*ast.Ident); plain {
					w.st = ownStateTop // aliasing: x := m
				} else {
					w.consume() // stored into a structure: ownership moves
				}
				handled[rhs] = true
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if w.isTarget(r) {
					w.consume() // ownership to the caller
					handled[r] = true
				}
			}
		case *ast.SendStmt:
			if w.isTarget(x.Value) {
				w.consume()
				handled[x.Value] = true
			}
		case *ast.SelectorExpr:
			if w.isTarget(x.X) {
				handled[x.X] = true // field read: borrow
			}
		case *ast.IndexExpr:
			if w.isTarget(x.X) {
				handled[x.X] = true // element read/write: borrow
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND && w.isTarget(x.X) {
				w.st = ownStateTop
				handled[x.X] = true
			}
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				if w.isTarget(x.X) {
					handled[x.X] = true
				}
				if w.isTarget(x.Y) {
					handled[x.Y] = true
				}
			}
		case *ast.Ident:
			if w.isTarget(x) {
				w.st = ownStateTop // unrecognized use: aliasing
			}
		}
		return true
	})
}

// call applies one call's effect on the ownership target.
func (w *ownWalk) call(call *ast.CallExpr, handled map[ast.Node]bool) {
	fn := calleeOf(w.p.Info, call)
	kind := w.m.poolKindOf(fn)

	// PutBuf(m) / PutBuf(m.Data): the pooled payload is recycled.
	if kind == poolRelease && len(call.Args) > 0 &&
		(w.isTarget(call.Args[0]) || w.isTargetField(call.Args[0])) {
		w.consume()
		handled[call.Args[0]] = true
		return
	}
	// Method (or field-func) call with the target as receiver base.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && w.isTarget(sel.X) {
		handled[sel.X] = true
		switch kind {
		case poolRelease:
			w.consume()
			return
		case poolRetain:
			w.st = ownStateTop // refcounted use of a single-owner value
			return
		}
		if fn != nil {
			switch w.m.ownEffectOf(fn, -1) {
			case ownConsume:
				w.consume()
			case ownBorrow:
				// obligation stays with the caller
			default:
				w.st = ownStateTop
			}
		}
		// continue to scan ordinary args below
	}

	for i, arg := range call.Args {
		argIsTarget := w.isTarget(arg)
		if !argIsTarget && !w.isTargetField(arg) {
			continue
		}
		switch {
		case fn == nil:
			if name := builtinName(w.p, call); name != "" {
				if name == "append" && argIsTarget {
					w.st = ownStateTop // aliased into a slice
				}
				// len/cap/copy/... borrow the value.
				handled[arg] = true
				continue
			}
			if isConversion(w.p, call) {
				handled[arg] = true // value copy: borrow
				continue
			}
			if probeFieldCall(w.p, call) {
				handled[arg] = true // oracle hook: observes only
				continue
			}
			if argIsTarget {
				// Callback convention: the func value owns the carrier.
				w.consume()
			}
			handled[arg] = true
		case !moduleFunc(w.m, fn):
			handled[arg] = true // stdlib: reads only, never recycles
		default:
			if argIsTarget {
				switch w.m.ownEffectOf(fn, i) {
				case ownConsume:
					w.consume()
				case ownBorrow:
					// obligation stays with the caller
				default:
					w.st = ownStateTop
				}
			}
			handled[arg] = true
		}
	}
}

// --- local acquisition tracking --------------------------------------

// refState tracks one locally acquired pooled value along one path.
type refState struct {
	delta    int  // outstanding references acquired minus released
	deferred int  // releases registered with defer (apply at exit)
	top      bool // paths disagree: silent
	escaped  bool // stored/aliased/captured: obligation moved, silent
	pos      token.Pos
	what     string
}

func (s refState) effective() int { return s.delta - s.deferred }

type refFact map[types.Object]refState

func (f refFact) clone() refFact {
	out := make(refFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

func joinRef(a, b refFact) refFact {
	out := a.clone()
	for obj, sb := range b {
		sa, ok := out[obj]
		if !ok {
			out[obj] = sb
			continue
		}
		switch {
		case sa.escaped || sb.escaped:
			sa.escaped = true
		case sa.top || sb.top || sa.delta != sb.delta || sa.deferred != sb.deferred:
			sa.top = true
		}
		out[obj] = sa
	}
	return out
}

func equalRef(a, b refFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || va != vb {
			return false
		}
	}
	return true
}

// refWalk applies one CFG node's events to a fact. When report is
// non-nil (post-fixpoint reporting pass) it emits over-release and
// overwrite diagnostics as they are discovered.
type refWalk struct {
	m      *Module
	p      *Package
	f      refFact
	report Reporter
}

func (w *refWalk) tracked(e ast.Expr) (types.Object, refState, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil, refState{}, false
	}
	obj := w.p.Info.Uses[id]
	if obj == nil {
		obj = w.p.Info.Defs[id]
	}
	st, ok := w.f[obj]
	return obj, st, ok
}

func (w *refWalk) escape(obj types.Object) {
	st := w.f[obj]
	st.escaped = true
	w.f[obj] = st
}

func (w *refWalk) release(obj types.Object, at token.Pos) {
	st := w.f[obj]
	if st.top || st.escaped {
		return
	}
	st.delta--
	if st.delta < 0 {
		if w.report != nil {
			w.report(at, "%s acquired at %s is released more times than acquired on this path",
				st.what, w.p.Fset.Position(st.pos))
		}
		st.top = true
	}
	w.f[obj] = st
}

func (w *refWalk) node(n ast.Node) {
	handled := make(map[ast.Node]bool)
	ast.Inspect(n, func(x ast.Node) bool {
		if x == nil || handled[x] {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			// Closure capture: the closure co-owns anything it mentions.
			ast.Inspect(x.Body, func(y ast.Node) bool {
				if e, ok := y.(ast.Expr); ok {
					if obj, _, ok := w.tracked(e); ok {
						w.escape(obj)
					}
				}
				return true
			})
			return false
		case *ast.DeferStmt:
			w.deferCall(x.Call)
			return false
		case *ast.AssignStmt:
			w.assign(x, handled)
		case *ast.ValueSpec:
			w.valueSpec(x, handled)
		case *ast.CallExpr:
			w.call(x, handled)
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if obj, _, ok := w.tracked(r); ok {
					w.escape(obj) // ownership to the caller
					handled[r] = true
				}
			}
		case *ast.SendStmt:
			if obj, _, ok := w.tracked(x.Value); ok {
				w.escape(obj)
				handled[x.Value] = true
			}
		case *ast.SelectorExpr:
			if obj, _, ok := w.tracked(x.X); ok {
				_ = obj
				handled[x.X] = true // field access borrows
			}
		case *ast.IndexExpr:
			if obj, _, ok := w.tracked(x.X); ok {
				_ = obj
				handled[x.X] = true // b[i] borrows the buffer
			}
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				if obj, _, ok := w.tracked(x.X); ok {
					_ = obj
					handled[x.X] = true
				}
				if obj, _, ok := w.tracked(x.Y); ok {
					_ = obj
					handled[x.Y] = true
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if obj, _, ok := w.tracked(x.X); ok {
					w.escape(obj)
					handled[x.X] = true
				}
			}
		case *ast.Ident:
			if obj, _, ok := w.tracked(x); ok {
				w.escape(obj) // unrecognized use: aliasing
			}
		}
		return true
	})
}

// acquisitionCall returns the description of a fresh acquisition, or "".
func (w *refWalk) acquisitionCall(e ast.Expr) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	fn := calleeOf(w.p.Info, call)
	if w.m.poolKindOf(fn) != poolAcquire {
		return "", false
	}
	if fn.Name() == "GetBuf" {
		return "pooled buffer", true
	}
	return "pooled packet", true
}

// define starts (or restarts) tracking obj as freshly acquired.
func (w *refWalk) define(obj types.Object, what string, at token.Pos) {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Parent() == nil || v.Parent() == w.p.Types.Scope() {
		return // only plain locals are tracked
	}
	if old, ok := w.f[obj]; ok && !old.top && !old.escaped && old.effective() > 0 {
		if w.report != nil {
			w.report(at, "%s acquired at %s is overwritten while still holding %d unreleased reference(s)",
				old.what, w.p.Fset.Position(old.pos), old.effective())
		}
	}
	w.f[obj] = refState{delta: 1, pos: at, what: what}
}

func (w *refWalk) assign(x *ast.AssignStmt, handled map[ast.Node]bool) {
	// Direct acquisition: x := GetBuf(n) / pkt := NewPooledPacket(...).
	if len(x.Lhs) == 1 && len(x.Rhs) == 1 {
		if what, ok := w.acquisitionCall(x.Rhs[0]); ok {
			if id, isIdent := ast.Unparen(x.Lhs[0]).(*ast.Ident); isIdent {
				obj := w.p.Info.Defs[id]
				if obj == nil {
					obj = w.p.Info.Uses[id]
				}
				if obj != nil {
					// Scan the call's arguments for other tracked values
					// first, then start tracking the result.
					call := ast.Unparen(x.Rhs[0]).(*ast.CallExpr)
					for _, arg := range call.Args {
						w.node(arg)
					}
					w.define(obj, what, x.Rhs[0].Pos())
					handled[x.Rhs[0]] = true
					handled[x.Lhs[0]] = true
					return
				}
			}
		}
	}
	// General assignment: aliasing and stores escape; a tracked LHS
	// being overwritten is re-checked in define-like fashion.
	for i, rhs := range x.Rhs {
		if obj, _, ok := w.tracked(rhs); ok {
			w.escape(obj)
			handled[rhs] = true
			_ = i
		}
	}
	for _, lhs := range x.Lhs {
		if id, isIdent := ast.Unparen(lhs).(*ast.Ident); isIdent {
			obj := w.p.Info.Uses[id]
			if obj == nil {
				obj = w.p.Info.Defs[id]
			}
			if old, ok := w.f[obj]; ok && !old.top && !old.escaped && old.effective() > 0 {
				if w.report != nil {
					w.report(lhs.Pos(), "%s acquired at %s is overwritten while still holding %d unreleased reference(s)",
						old.what, w.p.Fset.Position(old.pos), old.effective())
				}
				delete(w.f, obj)
			}
			handled[lhs] = true
		}
	}
}

func (w *refWalk) valueSpec(x *ast.ValueSpec, handled map[ast.Node]bool) {
	if len(x.Names) == 1 && len(x.Values) == 1 {
		if what, ok := w.acquisitionCall(x.Values[0]); ok {
			if obj := w.p.Info.Defs[x.Names[0]]; obj != nil {
				call := ast.Unparen(x.Values[0]).(*ast.CallExpr)
				for _, arg := range call.Args {
					w.node(arg)
				}
				w.define(obj, what, x.Values[0].Pos())
				handled[x.Values[0]] = true
			}
		}
	}
}

func (w *refWalk) deferCall(call *ast.CallExpr) {
	fn := calleeOf(w.p.Info, call)
	kind := w.m.poolKindOf(fn)
	// defer wire.PutBuf(b) / defer pkt.Release()
	var obj types.Object
	if kind == poolRelease {
		if len(call.Args) > 0 {
			if o, _, ok := w.tracked(call.Args[0]); ok {
				obj = o
			}
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && obj == nil {
			if o, _, ok := w.tracked(sel.X); ok {
				obj = o
			}
		}
	}
	if obj != nil {
		st := w.f[obj]
		st.deferred++
		w.f[obj] = st
		return
	}
	// Any other defer mentioning a tracked value: conservative escape.
	ast.Inspect(call, func(y ast.Node) bool {
		if e, ok := y.(ast.Expr); ok {
			if o, _, ok := w.tracked(e); ok {
				w.escape(o)
			}
		}
		return true
	})
}

func (w *refWalk) call(call *ast.CallExpr, handled map[ast.Node]bool) {
	fn := calleeOf(w.p.Info, call)
	kind := w.m.poolKindOf(fn)

	// wire.PutBuf(b)
	if kind == poolRelease && len(call.Args) > 0 {
		if obj, _, ok := w.tracked(call.Args[0]); ok {
			w.release(obj, call.Pos())
			handled[call.Args[0]] = true
			return
		}
	}
	// pkt.Release() / pkt.Retain() / other methods on a tracked value.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if obj, st, ok := w.tracked(sel.X); ok {
			handled[sel.X] = true
			switch kind {
			case poolRelease:
				w.release(obj, call.Pos())
				return
			case poolRetain:
				if !st.top && !st.escaped {
					st.delta++
					w.f[obj] = st
				}
				return
			}
			// Other method on the tracked value: borrows (reads).
		}
	}

	for i, arg := range call.Args {
		obj, st, ok := w.tracked(arg)
		if !ok {
			continue
		}
		_ = st
		switch {
		case fn == nil:
			if name := builtinName(w.p, call); name != "" {
				if name == "append" {
					w.escape(obj) // the result aliases the buffer
				}
				// len/cap/copy/print/println/delete borrow the value.
				handled[arg] = true
				continue
			}
			if isConversion(w.p, call) {
				handled[arg] = true // string(b) and friends copy out
				continue
			}
			// Func-value call: callback conventions vary; stop tracking.
			w.escape(obj)
			handled[arg] = true
		case !moduleFunc(w.m, fn):
			handled[arg] = true // stdlib: borrows
		default:
			switch w.m.ownEffectOf(fn, i) {
			case ownConsume:
				w.release(obj, call.Pos())
			case ownBorrow:
				// obligation stays here
			default:
				w.escape(obj)
			}
			handled[arg] = true
		}
	}
}

// --- the rule ---------------------------------------------------------

// Reflease checks pooled-buffer lifetimes: every acquired or retained
// reference must be released exactly once on every normal exit path,
// and carrier parameters must be consumed consistently across paths.
func Reflease(m *Module) Rule {
	return Rule{
		Name: "reflease",
		Doc:  "pooled buffers (netsim.Packet refs, wire.GetBuf slices, sctp.Message payloads) must be released exactly once on every path",
		Check: func(p *Package, report Reporter) {
			for _, f := range p.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					m.checkLocalAcquisitions(p, fd, report)
					m.checkCarrierParams(p, fd, report)
				}
			}
		},
	}
}

func (m *Module) refSpec(p *Package) DataflowSpec[refFact] {
	return DataflowSpec[refFact]{
		Entry: refFact{},
		Join:  joinRef,
		Transfer: func(b *Block, in refFact) refFact {
			w := &refWalk{m: m, p: p, f: in.clone()}
			for _, n := range b.Nodes {
				w.node(n)
			}
			return w.f
		},
		Equal: equalRef,
	}
}

func (m *Module) checkLocalAcquisitions(p *Package, fd *ast.FuncDecl, report Reporter) {
	cfg := BuildCFG(fd.Body)
	in, out := ForwardSolve(cfg, m.refSpec(p))

	// Reporting pass: replay each block once with the solved in-fact to
	// surface over-release / overwrite events.
	for _, b := range cfg.ReversePostorder() {
		fact, ok := in[b]
		if !ok {
			continue
		}
		w := &refWalk{m: m, p: p, f: fact.clone(), report: report}
		for _, n := range b.Nodes {
			w.node(n)
		}
	}

	// Leak check per normal-return edge: a definite positive count after
	// deferred releases is a path that drops the buffer.
	for _, pred := range cfg.Exit.Preds {
		fact, ok := out[pred]
		if !ok {
			continue
		}
		pos := fd.Body.End()
		for i := len(pred.Nodes) - 1; i >= 0; i-- {
			if pred.Nodes[i].Pos().IsValid() {
				pos = pred.Nodes[i].Pos()
				break
			}
		}
		for _, st := range fact {
			if st.top || st.escaped || st.effective() <= 0 {
				continue
			}
			report(pos, "return path leaks %s acquired at %s (%d unreleased reference(s))",
				st.what, p.Fset.Position(st.pos), st.effective())
		}
	}
}

func (m *Module) checkCarrierParams(p *Package, fd *ast.FuncDecl, report Reporter) {
	params := paramObjects(p, fd)
	for _, obj := range params {
		c := m.carrierOf(obj.Type())
		if c == nil {
			continue
		}
		cfg := BuildCFG(fd.Body)
		_, out := ForwardSolve(cfg, m.ownSpec(p, obj))
		consumed := false
		type held struct{ pos token.Pos }
		var drops []held
		for _, pred := range cfg.Exit.Preds {
			st, ok := out[pred]
			if !ok {
				continue
			}
			switch st {
			case ownStateConsumed:
				consumed = true
			case ownStateHeld:
				pos := fd.Body.End()
				for i := len(pred.Nodes) - 1; i >= 0; i-- {
					if pred.Nodes[i].Pos().IsValid() {
						pos = pred.Nodes[i].Pos()
						break
					}
				}
				drops = append(drops, held{pos: pos})
			}
		}
		// Pure borrowers (no path consumes) are exempt: ownership stays
		// with the caller by convention. Only a mixed function — some
		// path consumes, another drops — is a definite leak.
		if !consumed {
			continue
		}
		for _, d := range drops {
			report(d.pos, "this return path drops %s.%s (param %q) without consuming its pooled %s field, but other paths consume it",
				c.typ, obj.Name(), obj.Name(), c.field)
		}
	}
}
