package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FuncNode is one function in the module call graph: a declared function or
// method (Obj != nil), a function literal (Lit != nil), or a package's
// initializer node (neither), which owns the calls and literals in its
// package-level var initializers.
type FuncNode struct {
	// Index is the node's position in Graph.Nodes (stable, deterministic:
	// packages in load order, files in parse order, declarations in source
	// order).
	Index int
	// Obj is the declared function or method, nil for literals.
	Obj *types.Func
	// Decl is the declaration AST for declared functions, nil for literals.
	Decl *ast.FuncDecl
	// Lit is the function literal, nil for declarations.
	Lit *ast.FuncLit
	// Pkg is the package the function lives in.
	Pkg *PackageInfo
	// Name is the diagnostic name, e.g. "runtime.(*Peer).sendEncoded" or
	// "runtime.flushOutbox$1" for the first literal inside flushOutbox.
	Name string
	// Sig is the function's signature (receiver excluded for methods when
	// matching values; see valueSigKey).
	Sig *types.Signature
	// Body is the function body; nil for bodyless declarations (none in
	// this module, but external linkage is legal Go). An initializer
	// node's body is synthetic: one DeclStmt per package-level var decl.
	Body *ast.BlockStmt
	// Enclosing is the lexically enclosing function for literals.
	Enclosing *FuncNode
	// Sites maps every call expression lexically in this function's own
	// body — excluding nested literal bodies, which own their calls — to
	// the possible in-module callees (empty for calls that resolve only
	// outside the module).
	Sites map[*ast.CallExpr][]*FuncNode
	// Callees is the deduplicated union of this node's Sites targets plus
	// the targets of every lexically nested literal. Nested-literal callees
	// are included so bottom-up summary computation (which analyzes
	// literals inline with their enclosing function, capture-aware) sees
	// callee summaries ready.
	Callees []*FuncNode
	// AddrTaken reports the function was used as a value (assigned,
	// passed, stored) somewhere in the module; such functions are callee
	// candidates for calls through function-typed values.
	AddrTaken bool
}

func (n *FuncNode) String() string { return n.Name }

// Graph is the module-wide call graph.
type Graph struct {
	Pkgs  []*PackageInfo
	Nodes []*FuncNode

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
	// sites is the module-global call-site resolution: every call
	// expression in any function body to its candidate in-module callees.
	sites map[*ast.CallExpr][]*FuncNode
	// namedTypes are the package-level defined types of the module, the
	// candidate set for interface dispatch.
	namedTypes []*types.Named
	// valueSig groups address-taken functions by receiver-stripped
	// signature key: the candidate set for calls through function values.
	valueSig map[string][]*FuncNode
	// implCache memoizes interface-method resolution.
	implCache map[implKey][]*FuncNode
}

type implKey struct {
	iface  *types.Interface
	method string
}

// ResolveSite returns the candidate in-module callees of a call expression
// anywhere in the module (nil for unresolved/external calls, conversions
// and builtins).
func (g *Graph) ResolveSite(call *ast.CallExpr) []*FuncNode { return g.sites[call] }

// BuildGraph constructs the module call graph over the given packages.
func BuildGraph(pkgs []*PackageInfo) *Graph {
	g := &Graph{
		Pkgs:      pkgs,
		byObj:     make(map[*types.Func]*FuncNode),
		byLit:     make(map[*ast.FuncLit]*FuncNode),
		sites:     make(map[*ast.CallExpr][]*FuncNode),
		valueSig:  make(map[string][]*FuncNode),
		implCache: make(map[implKey][]*FuncNode),
	}
	g.collectNodes()
	g.collectNamedTypes()
	g.markAddrTaken()
	g.resolveSites()
	return g
}

// collectNodes creates one node per function declaration and literal, in
// deterministic source order, and per package one initializer node named
// "<pkg>.var" ("var" cannot name a function) when it has var initializers.
func (g *Graph) collectNodes() {
	for _, pkg := range g.Pkgs {
		vars := &ast.BlockStmt{}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					vars.List = append(vars.List, &ast.DeclStmt{Decl: gd})
				}
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &FuncNode{
					Index: len(g.Nodes),
					Obj:   obj,
					Decl:  fd,
					Pkg:   pkg,
					Name:  declName(pkg, obj),
					Sig:   obj.Type().(*types.Signature),
					Body:  fd.Body,
					Sites: make(map[*ast.CallExpr][]*FuncNode),
				}
				g.Nodes = append(g.Nodes, n)
				g.byObj[obj] = n
				g.collectLits(pkg, n, fd.Body)
			}
		}
		if len(vars.List) > 0 {
			n := &FuncNode{
				Index: len(g.Nodes),
				Pkg:   pkg,
				Name:  lastSegment(pkg.Path) + ".var",
				Sig:   types.NewSignatureType(nil, nil, nil, nil, nil, false),
				Body:  vars,
				Sites: make(map[*ast.CallExpr][]*FuncNode),
			}
			g.Nodes = append(g.Nodes, n)
			g.collectLits(pkg, n, vars)
		}
	}
}

// collectLits creates nodes for the function literals nested inside body,
// attributing each to its nearest enclosing function node. Literals directly
// inside body get nodes here; deeper ones recurse with the literal as the
// new enclosing function.
func (g *Graph) collectLits(pkg *PackageInfo, outer *FuncNode, body ast.Node) {
	var direct []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			direct = append(direct, lit)
			return false // its own literals belong to it, not to outer
		}
		return true
	})
	for i, lit := range direct {
		sig, _ := pkg.Info.Types[lit].Type.(*types.Signature)
		if sig == nil {
			continue
		}
		ln := &FuncNode{
			Index:     len(g.Nodes),
			Lit:       lit,
			Pkg:       pkg,
			Name:      fmt.Sprintf("%s$%d", outer.Name, i+1),
			Sig:       sig,
			Body:      lit.Body,
			Enclosing: outer,
			Sites:     make(map[*ast.CallExpr][]*FuncNode),
			AddrTaken: true, // a literal is a value by construction
		}
		g.Nodes = append(g.Nodes, ln)
		g.byLit[lit] = ln
		g.collectLits(pkg, ln, lit.Body)
	}
}

func declName(pkg *PackageInfo, obj *types.Func) string {
	short := lastSegment(pkg.Path)
	if recv := recvTypeName(obj); recv != "" {
		return fmt.Sprintf("%s.(%s).%s", short, recv, obj.Name())
	}
	return fmt.Sprintf("%s.%s", short, obj.Name())
}

func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// collectNamedTypes gathers the module's package-level defined types: the
// implementing-type candidate set for interface dispatch.
func (g *Graph) collectNamedTypes() {
	for _, pkg := range g.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				g.namedTypes = append(g.namedTypes, named)
			}
		}
	}
}

// markAddrTaken finds every use of a function as a value — an identifier or
// selector resolving to a *types.Func in non-call position — and registers
// the function in the signature-keyed candidate index for function-value
// calls. Method values (x.M passed as a callback) register under their
// receiver-stripped signature.
func (g *Graph) markAddrTaken() {
	for _, pkg := range g.Pkgs {
		info := pkg.Info
		for _, file := range pkg.Files {
			// An ident/selector is in call position when it is the Fun of a
			// CallExpr (possibly parenthesized); the Sel ident of a selector
			// is accounted for through its selector, never on its own.
			calleePos := make(map[ast.Expr]bool)
			selOf := make(map[*ast.Ident]bool)
			ast.Inspect(file, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.CallExpr:
					calleePos[unparen(e.Fun)] = true
				case *ast.SelectorExpr:
					selOf[e.Sel] = true
				}
				return true
			})
			ast.Inspect(file, func(n ast.Node) bool {
				var id *ast.Ident
				switch e := n.(type) {
				case *ast.Ident:
					if selOf[e] {
						return true
					}
					id = e
				case *ast.SelectorExpr:
					id = e.Sel
				default:
					return true
				}
				if expr, ok := n.(ast.Expr); ok && calleePos[expr] {
					return true
				}
				fn, ok := info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				if node := g.byObj[fn]; node != nil {
					node.AddrTaken = true
				}
				return true
			})
		}
	}
	for _, n := range g.Nodes {
		if n.AddrTaken {
			g.valueSig[valueSigKey(n.Sig)] = append(g.valueSig[valueSigKey(n.Sig)], n)
		}
	}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// valueSigKey renders a signature without its receiver, with fully
// qualified parameter and result types: the matching key between a call
// through a function value and the functions that could be stored in it.
func valueSigKey(sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	b.WriteByte('(')
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(params.At(i).Type(), qual))
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	b.WriteString(")(")
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(results.At(i).Type(), qual))
	}
	b.WriteByte(')')
	return b.String()
}

// resolveSites computes the candidate callees of every call expression and
// the per-node callee unions.
func (g *Graph) resolveSites() {
	for _, n := range g.Nodes {
		body := n.Body
		if body == nil {
			continue
		}
		ast.Inspect(body, func(m ast.Node) bool {
			if lit, ok := m.(*ast.FuncLit); ok && g.byLit[lit] != nil && g.byLit[lit] != n {
				return false // nested literal owns its calls
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			callees := g.resolveCall(n.Pkg, call)
			if len(callees) > 0 {
				n.Sites[call] = callees
				g.sites[call] = callees
			}
			return true
		})
	}
	// Callee unions: own sites, plus — for every lexically nested literal —
	// the literal itself and its sites, propagated to all ancestors
	// (literals are analyzed inline with their enclosing function by the
	// taint engine, so the enclosing function's summary depends on them).
	seen := make([]map[*FuncNode]bool, len(g.Nodes))
	addCallee := func(n, c *FuncNode) {
		if seen[n.Index] == nil {
			seen[n.Index] = make(map[*FuncNode]bool)
		}
		if !seen[n.Index][c] {
			seen[n.Index][c] = true
			n.Callees = append(n.Callees, c)
		}
	}
	for _, n := range g.Nodes {
		for _, cs := range n.Sites {
			for _, c := range cs {
				addCallee(n, c)
			}
		}
	}
	for _, m := range g.Nodes {
		for e := m.Enclosing; e != nil; e = e.Enclosing {
			addCallee(e, m)
			for _, cs := range m.Sites {
				for _, c := range cs {
					addCallee(e, c)
				}
			}
		}
	}
	// Sites is a map, so the unions above accumulate in nondeterministic
	// order; sort by node index to keep SCC output — and with it every
	// downstream diagnostic — bit-reproducible across runs.
	for _, n := range g.Nodes {
		sort.Slice(n.Callees, func(i, j int) bool { return n.Callees[i].Index < n.Callees[j].Index })
	}
}

// resolveCall returns the candidate in-module callees of one call
// expression: a static function/method call resolves to its declaration,
// an interface method call fans out to every implementing type's method,
// and a call through a function-typed value fans out to every address-taken
// function with a matching signature. Conversions and builtins resolve to
// nothing.
func (g *Graph) resolveCall(pkg *PackageInfo, call *ast.CallExpr) []*FuncNode {
	fun := unparen(call.Fun)
	// Conversion?
	if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() {
		return nil
	}
	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[f].(type) {
		case *types.Func:
			if n := g.byObj[obj]; n != nil {
				return []*FuncNode{n}
			}
			return nil
		case *types.Builtin, *types.TypeName, nil:
			return nil
		default:
			// Function-typed variable (local, param, package var).
			return g.resolveFuncValue(pkg, fun)
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[f]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				// Function-typed struct field.
				return g.resolveFuncValue(pkg, fun)
			}
			recv := sel.Recv()
			if iface, ok := recv.Underlying().(*types.Interface); ok {
				return g.resolveInterface(iface, fn.Name())
			}
			if n := g.byObj[fn]; n != nil {
				return []*FuncNode{n}
			}
			return nil
		}
		// Qualified identifier pkg.F or method expression T.M.
		if fn, ok := pkg.Info.Uses[f.Sel].(*types.Func); ok {
			if n := g.byObj[fn]; n != nil {
				return []*FuncNode{n}
			}
			return nil
		}
		return g.resolveFuncValue(pkg, fun)
	case *ast.FuncLit:
		if n := g.byLit[f]; n != nil {
			return []*FuncNode{n}
		}
		return nil
	default:
		// Call of a call result, index expression, etc.: a function value.
		return g.resolveFuncValue(pkg, fun)
	}
}

// resolveFuncValue resolves a call through a function-typed expression to
// every address-taken function or method value with an identical
// receiver-stripped signature.
func (g *Graph) resolveFuncValue(pkg *PackageInfo, fun ast.Expr) []*FuncNode {
	tv, ok := pkg.Info.Types[fun]
	if !ok {
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	return g.valueSig[valueSigKey(sig)]
}

// resolveInterface returns the methods named method of every module type
// implementing iface (the implementing-type set of the dispatch).
func (g *Graph) resolveInterface(iface *types.Interface, method string) []*FuncNode {
	key := implKey{iface: iface, method: method}
	if cached, ok := g.implCache[key]; ok {
		return cached
	}
	var out []*FuncNode
	for _, named := range g.namedTypes {
		if types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), method)
		if fn, ok := obj.(*types.Func); ok {
			if n := g.byObj[fn]; n != nil {
				out = append(out, n)
			}
		}
	}
	g.implCache[key] = out
	return out
}

// SCCOrder returns the strongly connected components of the call graph in
// bottom-up (reverse topological) order: every callee's component comes
// before — or in the same component as — its callers'. Tarjan's algorithm,
// iterative to survive deep module call chains.
func (g *Graph) SCCOrder() [][]*FuncNode {
	n := len(g.Nodes)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []*FuncNode
	var order [][]*FuncNode
	next := 0

	type frame struct {
		v  *FuncNode
		ci int // next callee index to visit
	}
	for _, root := range g.Nodes {
		if index[root.Index] != -1 {
			continue
		}
		frames := []frame{{v: root}}
		index[root.Index] = next
		low[root.Index] = next
		next++
		stack = append(stack, root)
		onStack[root.Index] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ci < len(v.Callees) {
				w := v.Callees[f.ci]
				f.ci++
				if index[w.Index] == -1 {
					index[w.Index] = next
					low[w.Index] = next
					next++
					stack = append(stack, w)
					onStack[w.Index] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w.Index] {
					if index[w.Index] < low[v.Index] {
						low[v.Index] = index[w.Index]
					}
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v.Index] < low[p.Index] {
					low[p.Index] = low[v.Index]
				}
			}
			if low[v.Index] == index[v.Index] {
				var comp []*FuncNode
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w.Index] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				order = append(order, comp)
			}
		}
	}
	return order
}
