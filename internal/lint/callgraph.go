package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// EdgeKind classifies how a call site resolves to its callees.
type EdgeKind int

const (
	// EdgeStatic is a direct call to a known function or method.
	EdgeStatic EdgeKind = iota
	// EdgeInterface is a dynamic method call; Callees conservatively
	// fans out to every module method that implements the interface.
	EdgeInterface
	// EdgeFuncValue is a call through a function value; Callees
	// conservatively fans out to every address-taken module function
	// with a matching signature.
	EdgeFuncValue
	// EdgeExternal is a call into a package outside the module (no
	// body to analyze; policy decides what it means).
	EdgeExternal
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeInterface:
		return "interface"
	case EdgeFuncValue:
		return "func-value"
	default:
		return "external"
	}
}

// Edge is one call site inside a module function.
type Edge struct {
	// Site is the call expression.
	Site *ast.CallExpr
	// File holds the site.
	File *File
	// Kind classifies the resolution.
	Kind EdgeKind
	// Callees are the module functions this site may invoke (empty
	// for external calls and for dynamic calls with no in-module
	// candidate).
	Callees []*types.Func
	// External is the callee object for EdgeExternal (its package
	// path drives allow/deny policy). Nil otherwise.
	External *types.Func
}

// FuncNode is one module function in the call graph: its object, its
// declaration, and the file holding it.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	File *File
	// Edges are the function's call sites in source order.
	Edges []Edge
}

// CallGraph is a static, conservative call graph over a loaded
// module: exact edges for direct calls, class-hierarchy fan-out for
// interface method calls, and signature-based fan-out over
// address-taken functions for calls through function values. It
// over-approximates - every call that can happen has an edge - which
// is the right direction for proofs of absence (alloc-freedom).
type CallGraph struct {
	mod   *Module
	nodes map[*types.Func]*FuncNode
	// methodsByName indexes module methods for interface fan-out.
	methodsByName map[string][]*types.Func
	// addrTaken marks module functions referenced as values (possible
	// targets of an indirect call).
	addrTaken map[*types.Func]bool
}

// BuildCallGraph indexes every function declaration in the module and
// resolves the call sites in each body (function literals inside a
// declaration are attributed to that declaration).
func BuildCallGraph(m *Module) *CallGraph {
	g := &CallGraph{
		mod:           m,
		nodes:         map[*types.Func]*FuncNode{},
		methodsByName: map[string][]*types.Func{},
		addrTaken:     map[*types.Func]bool{},
	}
	// Pass 1: index declarations and address-taken functions.
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[obj] = &FuncNode{Obj: obj, Decl: fd, File: f}
				if fd.Recv != nil {
					g.methodsByName[fd.Name.Name] = append(g.methodsByName[fd.Name.Name], obj)
				}
			}
			g.markAddressTaken(f)
		}
	}
	// Pass 2: resolve call sites.
	for _, node := range g.nodes {
		g.resolveEdges(node)
	}
	return g
}

// Node returns the graph node for a function object, or nil when the
// function has no body in the module.
func (g *CallGraph) Node(obj *types.Func) *FuncNode { return g.nodes[obj] }

// Nodes returns every module function in deterministic order (by
// position).
func (g *CallGraph) Nodes() []*FuncNode {
	out := make([]*FuncNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// markAddressTaken records functions referenced outside call position:
// candidates for indirect calls through function values.
func (g *CallGraph) markAddressTaken(f *File) {
	if f.Info == nil {
		return
	}
	// callFuns collects the expression in function position of each
	// call, so plain calls do not count as address-taking uses.
	callFuns := map[ast.Expr]bool{}
	ast.Inspect(f.AST, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callFuns[unparen(call.Fun)] = true
		}
		return true
	})
	ast.Inspect(f.AST, func(n ast.Node) bool {
		var id *ast.Ident
		switch v := n.(type) {
		case *ast.Ident:
			id = v
		case *ast.SelectorExpr:
			// Visiting children will reach v.Sel; skip double counting.
			return true
		}
		if id == nil {
			return true
		}
		obj, ok := f.Info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if callFuns[ast.Expr(id)] {
			return true
		}
		// Selector method values (x.M used as a value) also arrive
		// here through the Sel identifier.
		g.addrTaken[obj] = true
		return true
	})
	// Second sweep for selector expressions used as values.
	ast.Inspect(f.AST, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || callFuns[ast.Expr(sel)] {
			return true
		}
		if obj, ok := f.Info.Uses[sel.Sel].(*types.Func); ok {
			g.addrTaken[obj] = true
		}
		return true
	})
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// resolveEdges walks one declaration body and resolves every call.
func (g *CallGraph) resolveEdges(node *FuncNode) {
	info := node.File.Info
	if info == nil {
		return
	}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if edge, ok := g.resolveCall(node.File, call); ok {
			node.Edges = append(node.Edges, edge)
		}
		return true
	})
	sort.SliceStable(node.Edges, func(i, j int) bool { return node.Edges[i].Site.Pos() < node.Edges[j].Site.Pos() })
}

// resolveCall classifies one call expression. Conversions and builtin
// calls return ok=false: they are not graph edges (the alloc scanner
// handles builtins directly).
func (g *CallGraph) resolveCall(f *File, call *ast.CallExpr) (Edge, bool) {
	info := f.Info
	fun := unparen(call.Fun)

	// Type conversions are not calls.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return Edge{}, false
	}

	switch v := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[v].(type) {
		case *types.Builtin:
			return Edge{}, false
		case *types.Func:
			return g.staticEdge(f, call, obj), true
		case *types.Var, *types.Nil:
			return g.funcValueEdge(f, call), true
		case nil:
			// Unresolved (type error); treat as an indirect call so
			// proofs stay conservative.
			return g.funcValueEdge(f, call), true
		}
		return Edge{}, false
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[v]; ok && sel.Kind() == types.MethodVal {
			callee, ok := sel.Obj().(*types.Func)
			if !ok {
				return g.funcValueEdge(f, call), true
			}
			if types.IsInterface(sel.Recv()) {
				return g.interfaceEdge(f, call, sel.Recv(), callee), true
			}
			return g.staticEdge(f, call, callee), true
		}
		switch obj := info.Uses[v.Sel].(type) {
		case *types.Func:
			// Package-qualified function or method expression.
			return g.staticEdge(f, call, obj), true
		case *types.Var:
			// Struct field of function type, or package-level func var.
			return g.funcValueEdge(f, call), true
		case nil:
			return g.funcValueEdge(f, call), true
		}
		return Edge{}, false
	default:
		// Call of a function literal or an arbitrary expression.
		if lit, ok := fun.(*ast.FuncLit); ok {
			_ = lit // body is scanned inline by analyzers; no edge
			return Edge{}, false
		}
		return g.funcValueEdge(f, call), true
	}
}

// staticEdge builds the edge for a direct call.
func (g *CallGraph) staticEdge(f *File, call *ast.CallExpr, callee *types.Func) Edge {
	if g.nodes[callee] != nil {
		return Edge{Site: call, File: f, Kind: EdgeStatic, Callees: []*types.Func{callee}}
	}
	return Edge{Site: call, File: f, Kind: EdgeExternal, External: callee}
}

// interfaceEdge fans an interface method call out to every module
// method with the same name whose receiver type implements the
// interface (class-hierarchy analysis).
func (g *CallGraph) interfaceEdge(f *File, call *ast.CallExpr, recv types.Type, callee *types.Func) Edge {
	iface, _ := recv.Underlying().(*types.Interface)
	edge := Edge{Site: call, File: f, Kind: EdgeInterface}
	if iface == nil {
		return edge
	}
	name := callee.Name()
	for _, m := range g.methodsByName[name] {
		sig, ok := m.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		rt := sig.Recv().Type()
		if types.Implements(rt, iface) {
			edge.Callees = append(edge.Callees, m)
			continue
		}
		// Value-receiver sets are a subset of pointer-receiver sets:
		// check the pointer type too.
		if _, isPtr := rt.Underlying().(*types.Pointer); !isPtr {
			if types.Implements(types.NewPointer(rt), iface) {
				edge.Callees = append(edge.Callees, m)
			}
		}
	}
	sortFuncs(edge.Callees)
	return edge
}

// funcValueEdge fans a call through a function value out to every
// address-taken module function whose signature matches the call
// site's type (rapid-type-analysis style).
func (g *CallGraph) funcValueEdge(f *File, call *ast.CallExpr) Edge {
	edge := Edge{Site: call, File: f, Kind: EdgeFuncValue}
	tv, ok := f.Info.Types[unparen(call.Fun)]
	if !ok {
		return edge
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return edge
	}
	for fn := range g.addrTaken {
		if g.nodes[fn] == nil {
			continue
		}
		fnSig, ok := fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		if types.Identical(stripRecv(fnSig), stripRecv(sig)) {
			edge.Callees = append(edge.Callees, fn)
		}
	}
	sortFuncs(edge.Callees)
	return edge
}

// stripRecv normalizes a signature for value-compatibility comparison
// (a method value's signature has no receiver).
func stripRecv(sig *types.Signature) *types.Signature {
	if sig.Recv() == nil {
		return sig
	}
	return types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
}

func sortFuncs(fns []*types.Func) {
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
}

// Reachable walks the graph from the given roots and returns every
// module function reachable through any edge kind, keyed to a sample
// call path (the chain of functions from a root, for diagnostics).
// Roots themselves are included with a path of just their own name.
func (g *CallGraph) Reachable(roots []*types.Func) map[*types.Func][]string {
	paths := map[*types.Func][]string{}
	var queue []*types.Func
	for _, r := range roots {
		if g.nodes[r] == nil || paths[r] != nil {
			continue
		}
		paths[r] = []string{r.Name()}
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		node := g.nodes[cur]
		if node == nil {
			continue
		}
		for _, e := range node.Edges {
			for _, callee := range e.Callees {
				if paths[callee] != nil || g.nodes[callee] == nil {
					continue
				}
				paths[callee] = append(append([]string{}, paths[cur]...), callee.Name())
				queue = append(queue, callee)
			}
		}
	}
	return paths
}
