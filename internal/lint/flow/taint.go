package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Spec configures one taint analysis: where taint is born (calls or types),
// what launders it, and where it must never arrive.
type Spec struct {
	// Kind names the tainted quantity in findings ("payload plaintext",
	// "key material").
	Kind string
	// Advice is appended to every finding after the flow description.
	Advice string
	// SourceCall reports that a call to fn (static callee; possibly
	// external to the module) returns tainted values. All non-error
	// results are tainted.
	SourceCall func(fn *types.Func) bool
	// SourceType reports that every value of type t is inherently tainted
	// (nil disables type-based sources).
	SourceType func(t types.Type) bool
	// SanitizerCall reports that fn's results are clean regardless of
	// argument taint, and that taint must not be tracked into fn.
	SanitizerCall func(fn *types.Func) bool
	// SinkArgs reports that fn is a sink: it returns the sensitive
	// positions in the plain argument list (receiver excluded) and a
	// description for findings. A nil args slice with ok=true marks every
	// argument sensitive. ok is false for non-sinks.
	SinkArgs func(fn *types.Func) (args []int, desc string, ok bool)
	// IgnorePkg, when non-nil, exempts whole packages from sink checks
	// (their own summaries are still computed, so taint still tracks
	// through them).
	IgnorePkg func(path string) bool
}

// Finding is one source-to-sink flow.
type Finding struct {
	Pos     token.Pos
	Message string
}

// source describes where a taint was born.
type source struct {
	what string
}

// sinkRec describes a sink reachable from a tainted value, possibly through
// a chain of calls.
type sinkRec struct {
	sink string
	via  string
}

// taint is the lattice value of one expression or variable: the set of
// enclosing-function parameters whose taint it carries (bitset, receiver is
// bit 0) plus the sources that reach it unconditionally.
type taint struct {
	params uint64
	srcs   []source
}

func (t taint) empty() bool { return t.params == 0 && len(t.srcs) == 0 }

const maxSrcs = 3

func mergeSrcs(dst []source, more []source) ([]source, bool) {
	changed := false
outer:
	for _, s := range more {
		for _, d := range dst {
			if d.what == s.what {
				continue outer
			}
		}
		if len(dst) >= maxSrcs {
			break
		}
		dst = append(dst, s)
		changed = true
	}
	return dst, changed
}

func (t taint) union(o taint) taint {
	out := taint{params: t.params | o.params}
	out.srcs = append(out.srcs, t.srcs...)
	out.srcs, _ = mergeSrcs(out.srcs, o.srcs)
	return out
}

// Summary is one function's taint behaviour as seen by its callers. Param
// indices cover the receiver (index 0 for methods) followed by the declared
// parameters.
type Summary struct {
	nParams int
	// resultParams[r] = param bitset flowing into result r.
	resultParams []uint64
	// resultSrcs[r] = sources flowing into result r unconditionally.
	resultSrcs [][]source
	// paramSinks[p] = sinks transitively reachable from param p.
	paramSinks [][]sinkRec
	// paramWrites[p] = param bitset written into param p's referent
	// (pointer/slice/map params and receivers).
	paramWrites []uint64
	// paramWriteSrcs[p] = sources written into param p's referent.
	paramWriteSrcs [][]source
}

func newSummary(nParams, nResults int) *Summary {
	return &Summary{
		nParams:        nParams,
		resultParams:   make([]uint64, nResults),
		resultSrcs:     make([][]source, nResults),
		paramSinks:     make([][]sinkRec, nParams),
		paramWrites:    make([]uint64, nParams),
		paramWriteSrcs: make([][]source, nParams),
	}
}

func (s *Summary) addSink(p int, rec sinkRec) bool {
	if p < 0 || p >= s.nParams {
		return false
	}
	// Identity is the sink alone: the first-recorded (shortest) via chain
	// wins, so fixpoint iterations don't multiply one flow into a chain
	// per call-path length.
	for _, r := range s.paramSinks[p] {
		if r.sink == rec.sink {
			return false
		}
	}
	if len(s.paramSinks[p]) >= 8 {
		return false
	}
	s.paramSinks[p] = append(s.paramSinks[p], rec)
	return true
}

// ResultSources returns the labels of the sources that flow unconditionally
// into result r, for analyzer post-passes over the computed summaries.
func (s *Summary) ResultSources(r int) []string {
	if r < 0 || r >= len(s.resultSrcs) {
		return nil
	}
	out := make([]string, 0, len(s.resultSrcs[r]))
	for _, src := range s.resultSrcs[r] {
		out = append(out, src.what)
	}
	sort.Strings(out)
	return out
}

// Taint runs the analysis over the whole graph and returns the findings
// sorted by position.
func Taint(g *Graph, spec *Spec) []Finding {
	findings, _ := TaintSummaries(g, spec)
	return findings
}

// TaintSummaries is Taint plus the per-function summaries the fixpoint
// converged on, so analyzers can run post-passes (e.g. keyleak's
// exported-return check) without re-walking the module.
func TaintSummaries(g *Graph, spec *Spec) ([]Finding, map[*FuncNode]*Summary) {
	e := &taintEngine{
		g:        g,
		spec:     spec,
		sums:     make(map[*FuncNode]*Summary),
		reported: make(map[string]Finding),
	}
	for _, comp := range g.SCCOrder() {
		for iter := 0; iter < 32; iter++ {
			changed := false
			for _, n := range comp {
				if e.analyze(n) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	out := make([]Finding, 0, len(e.reported))
	for _, f := range e.reported {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Message < out[j].Message
	})
	return out, e.sums
}

type taintEngine struct {
	g        *Graph
	spec     *Spec
	sums     map[*FuncNode]*Summary
	reported map[string]Finding
}

// funcState is the per-analysis mutable state of one function.
type funcState struct {
	e          *taintEngine
	n          *FuncNode
	paramBit   map[types.Object]int
	results    []types.Object // named result objects (nil entries for unnamed)
	obj        map[types.Object]taint
	sum        *Summary
	changed    bool
	sumChanged bool
	// callMemo bounds re-evaluation of nested calls within one pass.
	callMemo map[*ast.CallExpr]taint
}

func (e *taintEngine) analyze(n *FuncNode) bool {
	if n.Body == nil {
		return false
	}
	nResults := n.Sig.Results().Len()
	st := &funcState{
		e:        e,
		n:        n,
		paramBit: make(map[types.Object]int),
		obj:      make(map[types.Object]taint),
		sum:      e.sums[n],
	}
	if st.sum == nil {
		st.sum = newSummary(paramCount(n.Sig), nResults)
		e.sums[n] = st.sum
	}
	st.bindParams()
	// Fixpoint over the (flow-insensitive) body walk: taint only grows.
	for iter := 0; iter < 32; iter++ {
		st.changed = false
		st.callMemo = make(map[*ast.CallExpr]taint)
		st.walk(n.Body, 0)
		if !st.changed {
			break
		}
	}
	// changed is reset by the last stable iteration; report whether the
	// summary grew at any point during this analysis via sumChanged.
	return st.sumChanged
}

func paramCount(sig *types.Signature) int {
	c := sig.Params().Len()
	if sig.Recv() != nil {
		c++
	}
	return c
}

// bindParams maps receiver and parameter objects to bit positions, and
// collects named result objects.
func (st *funcState) bindParams() {
	sig := st.n.Sig
	bit := 0
	if recv := sig.Recv(); recv != nil {
		st.paramBit[recv] = bit
		bit++
	}
	for i := 0; i < sig.Params().Len(); i++ {
		st.paramBit[sig.Params().At(i)] = bit
		bit++
	}
	// The AST declares its own idents for receiver/params; their Defs are
	// normally the same objects as the signature's, but bind them
	// explicitly so the mapping cannot depend on go/types sharing.
	info := st.n.Pkg.Info
	bindField := func(fl *ast.FieldList, startBit int) {
		if fl == nil {
			return
		}
		b := startBit
		for _, f := range fl.List {
			if len(f.Names) == 0 {
				b++
				continue
			}
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					st.paramBit[obj] = b
				}
				b++
			}
		}
	}
	if st.n.Decl != nil {
		startBit := 0
		if st.n.Decl.Recv != nil {
			bindField(st.n.Decl.Recv, 0)
			startBit = 1
		}
		bindField(st.n.Decl.Type.Params, startBit)
	} else if st.n.Lit != nil {
		bindField(st.n.Lit.Type.Params, 0)
	}
	for i := 0; i < sig.Results().Len(); i++ {
		r := sig.Results().At(i)
		if r.Name() != "" {
			st.results = append(st.results, r)
		} else {
			st.results = append(st.results, nil)
		}
	}
}

// walk processes every statement in body. litDepth tracks descent into
// nested function literals: their bodies are analyzed inline (captured
// variables resolve against this function's taint state) but their return
// statements do not contribute to this function's results.
func (st *funcState) walk(body ast.Node, litDepth int) {
	ast.Inspect(body, func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.FuncLit:
			if nd == body {
				return true
			}
			st.walk(s.Body, litDepth+1)
			return false
		case *ast.AssignStmt:
			st.assign(s)
		case *ast.ValueSpec:
			st.valueSpec(s)
		case *ast.RangeStmt:
			st.rangeStmt(s)
		case *ast.SendStmt:
			st.taintRoot(s.Chan, st.exprTaint(s.Value))
		case *ast.ReturnStmt:
			if litDepth == 0 {
				st.returnStmt(s)
			}
		case *ast.CallExpr:
			st.callTaint(s)
		}
		return true
	})
	if litDepth == 0 {
		// Named results carry taint through bare returns and deferred
		// writes; fold their final state into the summary.
		for i, obj := range st.results {
			if obj == nil {
				continue
			}
			st.recordResult(i, st.obj[obj])
		}
	}
}

func (st *funcState) assign(s *ast.AssignStmt) {
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		// Tuple assignment from a call or type assertion.
		switch r := s.Rhs[0].(type) {
		case *ast.CallExpr:
			ts := st.callResults(r)
			for i, lhs := range s.Lhs {
				if i < len(ts) {
					st.assignTo(lhs, ts[i])
				}
			}
			return
		case *ast.TypeAssertExpr:
			st.assignTo(s.Lhs[0], st.exprTaint(r.X))
			return
		case *ast.IndexExpr, *ast.UnaryExpr:
			st.assignTo(s.Lhs[0], st.exprTaint(s.Rhs[0]))
			return
		}
		return
	}
	for i, lhs := range s.Lhs {
		if i < len(s.Rhs) {
			st.assignTo(lhs, st.exprTaint(s.Rhs[i]))
		}
	}
}

func (st *funcState) valueSpec(s *ast.ValueSpec) {
	if len(s.Values) == 1 && len(s.Names) > 1 {
		if call, ok := s.Values[0].(*ast.CallExpr); ok {
			ts := st.callResults(call)
			for i, name := range s.Names {
				if i < len(ts) {
					st.bindIdent(name, ts[i])
				}
			}
			return
		}
	}
	for i, name := range s.Names {
		if i < len(s.Values) {
			st.bindIdent(name, st.exprTaint(s.Values[i]))
		}
	}
}

func (st *funcState) rangeStmt(s *ast.RangeStmt) {
	t := st.exprTaint(s.X)
	if t.empty() {
		return
	}
	if s.Key != nil {
		st.assignTo(s.Key, t)
	}
	if s.Value != nil {
		st.assignTo(s.Value, t)
	}
}

func (st *funcState) returnStmt(s *ast.ReturnStmt) {
	for i, e := range s.Results {
		if len(s.Results) == 1 && st.sum != nil && len(st.sum.resultParams) > 1 {
			// return f() forwarding a tuple.
			if call, ok := e.(*ast.CallExpr); ok {
				for r, t := range st.callResults(call) {
					st.recordResult(r, t)
				}
				return
			}
		}
		st.recordResult(i, st.exprTaint(e))
	}
}

func (st *funcState) recordResult(i int, t taint) {
	if i >= len(st.sum.resultParams) || t.empty() {
		return
	}
	if st.sum.resultParams[i]|t.params != st.sum.resultParams[i] {
		st.sum.resultParams[i] |= t.params
		st.markSumChanged()
	}
	var ch bool
	st.sum.resultSrcs[i], ch = mergeSrcs(st.sum.resultSrcs[i], t.srcs)
	if ch {
		st.markSumChanged()
	}
}

func (st *funcState) bindIdent(id *ast.Ident, t taint) {
	if id.Name == "_" || t.empty() {
		return
	}
	obj := st.n.Pkg.Info.Defs[id]
	if obj == nil {
		obj = st.n.Pkg.Info.Uses[id]
	}
	if obj == nil {
		return
	}
	st.taintObj(obj, t)
}

// assignTo taints the storage named by lhs: an identifier directly, any
// other lvalue (field, index, deref) through its root object.
func (st *funcState) assignTo(lhs ast.Expr, t taint) {
	if t.empty() {
		return
	}
	if id, ok := unparen(lhs).(*ast.Ident); ok {
		st.bindIdent(id, t)
		return
	}
	st.taintRoot(lhs, t)
}

// taintRoot applies taint to the base object of an lvalue chain (x in
// x.f[i].g). If the base is a parameter, the write escapes into the
// caller's world and is recorded in the summary.
func (st *funcState) taintRoot(expr ast.Expr, t taint) {
	if t.empty() {
		return
	}
	obj := rootObject(st.n.Pkg.Info, expr)
	if obj == nil {
		return
	}
	st.taintObj(obj, t)
	if bit, ok := st.paramBit[obj]; ok {
		if st.sum.paramWrites[bit]|t.params != st.sum.paramWrites[bit] {
			st.sum.paramWrites[bit] |= t.params
			st.markSumChanged()
		}
		var ch bool
		st.sum.paramWriteSrcs[bit], ch = mergeSrcs(st.sum.paramWriteSrcs[bit], t.srcs)
		if ch {
			st.markSumChanged()
		}
	}
}

func (st *funcState) taintObj(obj types.Object, t taint) {
	cur := st.obj[obj]
	merged := cur.union(t)
	if merged.params != cur.params || len(merged.srcs) != len(cur.srcs) {
		st.obj[obj] = merged
		st.changed = true
	}
}

// rootObject unwraps an lvalue (or value) chain to its base identifier's
// object.
func rootObject(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch e := unparen(expr).(type) {
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.UnaryExpr:
			expr = e.X
		case *ast.CallExpr, *ast.CompositeLit, *ast.BasicLit, *ast.FuncLit, *ast.TypeAssertExpr:
			return nil
		case *ast.Ident:
			if obj := info.Uses[e]; obj != nil {
				return obj
			}
			return info.Defs[e]
		default:
			return nil
		}
	}
}

// exprTaint computes the taint of an expression.
func (st *funcState) exprTaint(expr ast.Expr) taint {
	var t taint
	switch e := unparen(expr).(type) {
	case *ast.Ident:
		obj := st.n.Pkg.Info.Uses[e]
		if obj == nil {
			obj = st.n.Pkg.Info.Defs[e]
		}
		if obj != nil {
			if bit, ok := st.paramBit[obj]; ok {
				t = t.union(taint{params: 1 << uint(bit)})
			}
			t = t.union(st.obj[obj])
		}
	case *ast.SelectorExpr:
		// Field reads inherit their container's taint; method values and
		// qualified identifiers resolve through the base.
		if _, isPkg := st.n.Pkg.Info.Uses[idOf(e.X)].(*types.PkgName); !isPkg {
			t = t.union(st.exprTaint(e.X))
		}
	case *ast.CallExpr:
		t = t.union(st.callTaint(e))
	case *ast.IndexExpr:
		t = t.union(st.exprTaint(e.X))
	case *ast.SliceExpr:
		t = t.union(st.exprTaint(e.X))
	case *ast.StarExpr:
		t = t.union(st.exprTaint(e.X))
	case *ast.UnaryExpr:
		t = t.union(st.exprTaint(e.X))
	case *ast.BinaryExpr:
		t = t.union(st.exprTaint(e.X)).union(st.exprTaint(e.Y))
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			t = t.union(st.exprTaint(el))
		}
	case *ast.TypeAssertExpr:
		t = t.union(st.exprTaint(e.X))
	}
	// Type-based sources: any value of a source type is tainted at the
	// point it is read.
	if st.e.spec.SourceType != nil {
		if tv, ok := st.n.Pkg.Info.Types[expr]; ok && tv.Type != nil && st.e.spec.SourceType(tv.Type) {
			t = t.union(taint{srcs: []source{{what: types.TypeString(tv.Type, shortQual)}}})
		}
	}
	return t
}

func shortQual(p *types.Package) string { return p.Name() }

func idOf(e ast.Expr) *ast.Ident {
	id, _ := unparen(e).(*ast.Ident)
	return id
}

// callTaint processes one call expression: sanitizer/sink/source handling,
// callee-summary application, and the default propagate-through policy for
// external calls. It returns the taint of the call's first result.
func (st *funcState) callTaint(call *ast.CallExpr) taint {
	ts := st.callResults(call)
	if len(ts) == 0 {
		return taint{}
	}
	return ts[0]
}

// callResults is callTaint for all results.
func (st *funcState) callResults(call *ast.CallExpr) []taint {
	if memo, ok := st.callMemo[call]; ok {
		// Re-evaluated nested call within the same pass: argument taint
		// cannot have changed mid-pass enough to warrant re-walking (the
		// outer fixpoint re-runs the whole body anyway).
		return []taint{memo}
	}
	st.callMemo[call] = taint{}
	res := st.doCall(call)
	first := taint{}
	if len(res) > 0 {
		first = res[0]
	}
	st.callMemo[call] = first
	return res
}

func (st *funcState) doCall(call *ast.CallExpr) []taint {
	info := st.n.Pkg.Info
	spec := st.e.spec
	fun := unparen(call.Fun)

	// Conversion: taint flows through unchanged.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		var t taint
		for _, a := range call.Args {
			t = t.union(st.exprTaint(a))
		}
		return []taint{t}
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isB := info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "append":
				var t taint
				for _, a := range call.Args {
					t = t.union(st.exprTaint(a))
				}
				return []taint{t}
			case "copy":
				if len(call.Args) == 2 {
					st.taintRoot(call.Args[0], st.exprTaint(call.Args[1]))
				}
				return []taint{{}}
			default:
				return []taint{{}}
			}
		}
	}

	fn := staticCallee(info, call)
	if fn != nil && spec.SanitizerCall != nil && spec.SanitizerCall(fn) {
		// Evaluate arguments for their own nested effects, discard taint.
		for _, a := range call.Args {
			st.exprTaint(a)
		}
		return make([]taint, resultCount(fn))
	}

	// Gather argument taints in callee-param space: receiver first.
	recvExpr, argExprs := splitCall(info, call)
	argTaints := make([]taint, 0, len(argExprs)+1)
	if recvExpr != nil {
		argTaints = append(argTaints, st.exprTaint(recvExpr))
	} else if fn != nil && fn.Type().(*types.Signature).Recv() != nil {
		// Method value call (h(...) where h = x.M): the bound receiver is
		// invisible here; treat as untainted.
		argTaints = append(argTaints, taint{})
	}
	for _, a := range argExprs {
		argTaints = append(argTaints, st.exprTaint(a))
	}

	// Sink check on the static callee.
	if fn != nil && spec.SinkArgs != nil && !st.ignored() {
		if idxs, desc, ok := spec.SinkArgs(fn); ok {
			if idxs == nil {
				for i := range argExprs {
					idxs = append(idxs, i)
				}
			}
			for _, i := range idxs {
				if i >= 0 && i < len(argExprs) {
					st.reportSink(call, st.exprTaint(argExprs[i]), sinkRec{sink: desc})
				}
			}
		}
	}

	// Source check.
	var out []taint
	if fn != nil && spec.SourceCall != nil && spec.SourceCall(fn) {
		nres := resultCount(fn)
		out = make([]taint, nres)
		src := source{what: FuncLabel(fn)}
		sig := fn.Type().(*types.Signature)
		for i := 0; i < nres; i++ {
			if !isErrorType(sig.Results().At(i).Type()) {
				out[i] = taint{srcs: []source{src}}
			}
		}
		return out
	}

	// Candidate summaries (in-module callees, including interface
	// implementations and address-taken function values).
	candidates := st.e.g.ResolveSite(call)
	applied := false
	nres := 1
	if fn != nil {
		nres = resultCount(fn)
	} else if tv, ok := info.Types[fun]; ok {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			nres = sig.Results().Len()
		}
	}
	out = make([]taint, nres)
	for _, cand := range candidates {
		sum := st.e.sums[cand]
		if sum == nil {
			continue
		}
		applied = true
		st.applySummary(call, cand, sum, argTaints, recvExpr, argExprs, out)
	}
	if applied {
		return out
	}

	// External call default: results carry the union of argument taints.
	var all taint
	for _, t := range argTaints {
		all = all.union(t)
	}
	if fn != nil {
		sig := fn.Type().(*types.Signature)
		for i := range out {
			if i < sig.Results().Len() && isErrorType(sig.Results().At(i).Type()) {
				continue
			}
			out[i] = all
		}
	} else {
		for i := range out {
			out[i] = all
		}
	}
	return out
}

func (st *funcState) ignored() bool {
	return st.e.spec.IgnorePkg != nil && st.e.spec.IgnorePkg(st.n.Pkg.Path)
}

// applySummary maps one candidate callee's summary onto this call site.
func (st *funcState) applySummary(call *ast.CallExpr, cand *FuncNode, sum *Summary, argTaints []taint, recvExpr ast.Expr, argExprs []ast.Expr, out []taint) {
	// Align argument list with the callee's parameter space. When the
	// callee has a receiver but the call has no receiver expression (or
	// vice versa), align from the end of what we have.
	n := sum.nParams
	taintOf := func(p int) taint {
		if p < len(argTaints) {
			return argTaints[p]
		}
		// Variadic overflow: extra args all map to the last parameter.
		if n > 0 && len(argTaints) > n && p == n-1 {
			var t taint
			for _, a := range argTaints[n-1:] {
				t = t.union(a)
			}
			return t
		}
		return taint{}
	}
	exprOf := func(p int) ast.Expr {
		if recvExpr != nil {
			if p == 0 {
				return recvExpr
			}
			p--
		}
		if p >= 0 && p < len(argExprs) {
			return argExprs[p]
		}
		return nil
	}
	for p := 0; p < n; p++ {
		at := taintOf(p)
		if at.empty() {
			continue
		}
		// Param reaches a sink inside the callee.
		if !st.ignored() {
			for _, rec := range sum.paramSinks[p] {
				lifted := rec
				lifted.via = prependVia(cand.Name, rec.via)
				st.reportSink(call, at, lifted)
			}
		}
		// Param flows to results.
		for r := range out {
			if r < len(sum.resultParams) && sum.resultParams[r]&(1<<uint(p)) != 0 {
				out[r] = out[r].union(at)
			}
		}
		// Param taints another param's referent.
		for q := 0; q < n; q++ {
			if sum.paramWrites[q]&(1<<uint(p)) != 0 {
				if dst := exprOf(q); dst != nil {
					st.taintRoot(dst, at)
				}
			}
		}
	}
	// Source-born taint flowing out of the callee.
	for r := range out {
		if r < len(sum.resultSrcs) && len(sum.resultSrcs[r]) > 0 {
			out[r] = out[r].union(taint{srcs: sum.resultSrcs[r]})
		}
	}
	for q := 0; q < n; q++ {
		if len(sum.paramWriteSrcs[q]) > 0 {
			if dst := exprOf(q); dst != nil {
				st.taintRoot(dst, taint{srcs: sum.paramWriteSrcs[q]})
			}
		}
	}
}

func prependVia(name, via string) string {
	if via == "" {
		return name
	}
	// Cap the chain at three segments to keep messages readable.
	segs := 1
	for i := 0; i+2 < len(via); i++ {
		if via[i] == ' ' && via[i+1] == '>' {
			segs++
		}
	}
	if segs >= 3 {
		return name + " > …"
	}
	return name + " > " + via
}

// reportSink handles a tainted value meeting a sink: source-born taint is a
// finding here and now; parameter-born taint becomes part of this
// function's summary so the finding surfaces where the taint is actually
// introduced.
func (st *funcState) reportSink(at *ast.CallExpr, t taint, rec sinkRec) {
	if t.empty() {
		return
	}
	for _, src := range t.srcs {
		st.emit(at.Pos(), src, rec)
	}
	for p := 0; p < st.sum.nParams; p++ {
		if t.params&(1<<uint(p)) != 0 {
			if st.sum.addSink(p, rec) {
				st.markSumChanged()
			}
		}
	}
}

func (st *funcState) emit(pos token.Pos, src source, rec sinkRec) {
	spec := st.e.spec
	via := ""
	if rec.via != "" {
		via = fmt.Sprintf(" (via %s)", rec.via)
	}
	msg := fmt.Sprintf("%s from %s reaches %s%s; %s", spec.Kind, src.what, rec.sink, via, spec.Advice)
	// One finding per (position, source, sink): call-path variants of the
	// same flow differ only in the via chain and would drown the signal.
	position := st.n.Pkg.Fset.Position(pos)
	key := fmt.Sprintf("%s:%d:%d|%s|%s", position.Filename, position.Line, position.Column, src.what, rec.sink)
	if _, dup := st.e.reported[key]; !dup {
		st.e.reported[key] = Finding{Pos: pos, Message: msg}
		st.changed = true
	}
}

// sumChanged tracking: markSumChanged flips both the per-pass change flag
// and the per-analysis flag read by the SCC fixpoint.
func (st *funcState) markSumChanged() {
	st.changed = true
	st.sumChanged = true
}

// staticCallee resolves the statically named callee of a call: a declared
// function, a method (concrete or interface), or nil for calls through
// function values.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// splitCall returns the receiver expression (nil for plain calls) and the
// plain argument expressions of a call.
func splitCall(info *types.Info, call *ast.CallExpr) (ast.Expr, []ast.Expr) {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			return sel.X, call.Args
		}
	}
	return nil, call.Args
}

func resultCount(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return 0
	}
	return sig.Results().Len()
}

// FuncLabel names a function in findings: package-qualified, with the
// receiver type for methods ("tcpnet.Port.Send").
func FuncLabel(fn *types.Func) string {
	name := fn.Name()
	if recv := recvTypeName(fn); recv != "" {
		name = recv + "." + name
	}
	if fn.Pkg() != nil {
		return lastSegment(fn.Pkg().Path()) + "." + name
	}
	return name
}

func isErrorType(t types.Type) bool {
	return t.String() == "error" && types.IsInterface(t)
}
