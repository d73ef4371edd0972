package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Unreachable reports every function and method of a non-test package
// that no main can reach. The program roots are every func main of a
// package main, every init, and every function a package-level var
// initializer mentions. From them the walk follows the call graph's
// edges (static, interface fan-out, func-value fan-out) plus two kinds
// of edge no call site shows:
//
//   - a function or method value mentioned in a live body (a handler
//     registered with net/http is called only from the standard
//     library);
//   - a method of a live type (one an expression of live code has)
//     that the standard library may call dynamically: one whose name
//     and signature match a method of error or of an interface that an
//     imported package outside the module declares (fmt.Stringer,
//     json.Marshaler, sort.Interface, types.Importer, ...).
//
// The fan-out is conservative, so the rule can keep a dead function
// alive but never flags one a binary links. A test oracle, fixture or
// fake stays with //lint:ignore unreachable naming the test that
// uses it.
func Unreachable() *Rule {
	rule := &Rule{
		Name:     "unreachable",
		Doc:      "every function and method of a non-test package is reachable from some main (calls, function and method values, init and var initializers, and methods the standard library calls dynamically); delete dead code, give it a production caller, or //lint:ignore it naming the test that uses it",
		Severity: Error,
	}
	rule.ModuleCheck = func(m *Module, r *ModuleReporter) {
		g := BuildCallGraph(m)
		live := liveFuncs(m, g)
		for _, node := range g.Nodes() {
			if node.File.IsTest || live[node.Obj] != nil {
				continue
			}
			r.Reportf(node.File, node.Decl.Pos(), "%s is reached from no main; delete it, give it a production caller, or keep it with //lint:ignore unreachable naming the test that uses it", funcName(node.Obj))
		}
	}
	return rule
}

// liveFuncs walks the call graph from the program roots, adding the
// value references and dynamically called methods of each round's
// live code as new roots until nothing grows.
func liveFuncs(m *Module, g *CallGraph) map[*types.Func][]string {
	roots := programRoots(m, g)
	dynamic := stdInterfaceMethods(m)
	for {
		live := g.Reachable(roots)
		n := len(roots)
		for _, fn := range implicitCallees(m, g, live, dynamic) {
			if live[fn] == nil {
				roots = append(roots, fn)
			}
		}
		if len(roots) == n {
			return live
		}
	}
}

// programRoots returns every main of a package main, every init, and
// every function referenced from a package-level var initializer.
func programRoots(m *Module, g *CallGraph) []*types.Func {
	var roots []*types.Func
	for _, node := range g.Nodes() {
		fd := node.Decl
		if node.File.IsTest || fd.Recv != nil {
			continue
		}
		if fd.Name.Name == "init" || (fd.Name.Name == "main" && node.File.AST.Name.Name == "main") {
			roots = append(roots, node.Obj)
		}
	}
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.AST.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					roots = append(roots, funcRefs(f, g, gd)...)
				}
			}
		}
	}
	return roots
}

// funcRefs returns the module functions n mentions, called or not.
func funcRefs(f *File, g *CallGraph, n ast.Node) []*types.Func {
	var out []*types.Func
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := f.Info.Uses[id].(*types.Func); ok && g.Node(fn) != nil {
				out = append(out, fn)
			}
		}
		return true
	})
	return out
}

// implicitCallees returns what live code reaches without a module call
// site: the function and method values its bodies mention, and the
// methods of its live types that the standard library may call
// dynamically.
func implicitCallees(m *Module, g *CallGraph, live map[*types.Func][]string, dynamic map[string][]*types.Signature) []*types.Func {
	var out []*types.Func
	liveTypes := map[*types.TypeName]bool{}
	for fn := range live {
		node := g.Node(fn)
		info := node.File.Info
		out = append(out, funcRefs(node.File, g, node.Decl.Body)...)
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				if obj := namedObj(info.TypeOf(e)); obj != nil && obj.Pkg() != nil && inModule(m, obj.Pkg().Path()) {
					liveTypes[obj] = true
				}
			}
			return true
		})
	}
	for obj := range liveTypes {
		mset := types.NewMethodSet(types.NewPointer(obj.Type()))
		for i := 0; i < mset.Len(); i++ {
			fn, ok := mset.At(i).Obj().(*types.Func)
			if ok && g.Node(fn) != nil && matchesAny(fn, dynamic[fn.Name()]) {
				out = append(out, fn)
			}
		}
	}
	return out
}

// namedObj returns the type name of t or of the type t points to.
func namedObj(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// stdInterfaceMethods indexes by name the methods of error and of
// every interface declared by a package outside the module that the
// module imports, directly or not: the methods the standard library
// may call on a value it holds as an interface (fmt's String and
// Error, encoding/json's MarshalJSON, sort.Interface's Len, ...).
func stdInterfaceMethods(m *Module) map[string][]*types.Signature {
	out := map[string][]*types.Signature{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			fn := iface.Method(i)
			out[fn.Name()] = append(out[fn.Name()], fn.Type().(*types.Signature))
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		if !inModule(m, p.Path()) {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
					add(tn.Type())
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range m.Packages {
		visit(pkg.Types)
	}
	return out
}

// matchesAny reports whether method fn's signature is one of sigs.
func matchesAny(fn *types.Func, sigs []*types.Signature) bool {
	sig := stripRecv(fn.Type().(*types.Signature))
	for _, s := range sigs {
		if types.Identical(s, sig) {
			return true
		}
	}
	return false
}

// funcName renders a function as Name or Type.Name.
func funcName(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return namedObj(recv.Type()).Name() + "." + fn.Name()
	}
	return fn.Name()
}
