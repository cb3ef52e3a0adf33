// Package deadnames checks that every name declared in the root module's
// non-test Go files has a user in some non-test file of the root module or
// of bench/. It holds only test files, so it adds nothing to the build.
//
// Run it alone with `make deadnames` (or `go test ./internal/tools/deadnames`).
// A finding reads `file:line: <kind> <name> ...`; resolve it by deleting the
// name with the tests that test only it, by giving it a production caller,
// or by moving it into its package's _test.go files. Only a cross-package
// test seam belongs in the allowlist (deadnames_test.go).
package deadnames

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A listedPackage is the part of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Main bool }
}

// A program is the type-checked non-test source of one module (whose
// declarations are checked) and of the modules that only count as users.
type program struct {
	fset    *token.FileSet
	root    string         // directory of the checked module
	checked []*srcPkg      // packages of the checked module
	users   []*srcPkg      // every source package, checked ones included
	std     types.Importer // the standard library, from export data
	byPath  map[string]*srcPkg
}

type srcPkg struct {
	path  string
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,Module", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// load type-checks the non-test files of the module in root and of the
// modules in userRoots. The standard library comes from export data.
func load(root string, userRoots ...string) (*program, error) {
	prog := &program{fset: token.NewFileSet(), root: root, byPath: map[string]*srcPkg{}}
	exports := map[string]string{}
	var lists [][]listedPackage
	for _, dir := range append([]string{root}, userRoots...) {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.Standard {
				exports[p.ImportPath] = p.Export
			}
		}
		lists = append(lists, pkgs)
	}
	prog.std = importer.ForCompiler(prog.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	conf := types.Config{Importer: prog}
	for i, pkgs := range lists {
		for _, p := range pkgs {
			if p.Standard || prog.byPath[p.ImportPath] != nil {
				continue
			}
			sp, err := prog.check(&conf, p)
			if err != nil {
				return nil, err
			}
			if i == 0 && p.Module != nil && p.Module.Main {
				prog.checked = append(prog.checked, sp)
			}
		}
	}
	return prog, nil
}

// Import resolves source packages first, then the standard library.
func (prog *program) Import(path string) (*types.Package, error) {
	if sp := prog.byPath[path]; sp != nil {
		return sp.pkg, nil
	}
	return prog.std.Import(path)
}

func (prog *program) check(conf *types.Config, p listedPackage) (*srcPkg, error) {
	// Reading the directory makes `go test` re-run the check when a file
	// is added to or removed from a package.
	if _, err := os.ReadDir(p.Dir); err != nil {
		return nil, err
	}
	sp := &srcPkg{path: p.ImportPath, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(prog.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		sp.files = append(sp.files, f)
	}
	pkg, err := conf.Check(p.ImportPath, prog.fset, sp.files, sp.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
	}
	sp.pkg = pkg
	prog.byPath[p.ImportPath] = sp
	prog.users = append(prog.users, sp)
	return sp, nil
}

// A decl is one checked name: a top-level func, type, var or const, a
// method, or a struct field.
type decl struct {
	name  string // package path, then the dotted name: skope/internal/hw.Model.Peak
	kind  string
	pos   token.Pos
	spans [][2]token.Pos // uses inside these do not count
	used  bool
}

type checker struct {
	prog       *program
	decls      map[types.Object]*decl
	methods    map[*types.Func]*ast.FuncDecl
	ifaceSpecs map[*ast.InterfaceType]bool // the types of interface declarations
}

// declare records obj, declared by span, under name.
func (c *checker) declare(obj types.Object, name, kind string, pos token.Pos, span ast.Node) *decl {
	if obj == nil || obj.Name() == "_" {
		return nil
	}
	d := &decl{name: name, kind: kind, pos: pos, spans: [][2]token.Pos{{span.Pos(), span.End()}}}
	c.decls[obj] = d
	return d
}

// declareFile records every checked name a file declares.
func (c *checker) declareFile(sp *srcPkg, f *ast.File) {
	prefix := sp.path + "."
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			kind := "func"
			if d.Recv != nil {
				name = embeddedName(d.Recv.List[0].Type).Name + "." + name
				kind = "method"
				c.methods[sp.info.Defs[d.Name].(*types.Func)] = d
			}
			if d.Recv != nil || (name != "main" && name != "init") {
				c.declare(sp.info.Defs[d.Name], prefix+name, kind, d.Name.Pos(), d)
			}
			if d.Body != nil {
				c.declareFields(sp, d.Body, prefix+name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					c.declareType(sp, spec, prefix+spec.Name.Name)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						c.declare(sp.info.Defs[id], prefix+id.Name, strings.ToLower(d.Tok.String()), id.Pos(), spec)
					}
					c.declareFields(sp, spec, prefix+spec.Names[0].Name)
				}
			}
		}
	}
}

// declareType records a type and the fields of the structs it spells out.
// An interface's methods are part of the interface: they say what
// satisfies it, so they are used whenever it is.
func (c *checker) declareType(sp *srcPkg, spec *ast.TypeSpec, name string) {
	c.declare(sp.info.Defs[spec.Name], name, "type", spec.Name.Pos(), spec)
	if it, ok := spec.Type.(*ast.InterfaceType); ok {
		c.ifaceSpecs[it] = true
		return
	}
	c.declareFields(sp, spec.Type, name)
}

// declareFields records the types declared under n and the fields of every
// struct type spelled out there, named by prefix.
func (c *checker) declareFields(sp *srcPkg, n ast.Node, prefix string) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			c.declareType(sp, n, prefix+"."+n.Name.Name)
			return false
		case *ast.StructType:
			// encoding/json reads tagged fields, and inlines the embedded
			// fields of a struct with tags.
			wire := false
			for _, f := range n.Fields.List {
				wire = wire || f.Tag != nil
			}
			for _, f := range n.Fields.List {
				names := f.Names
				if len(names) == 0 {
					names = []*ast.Ident{embeddedName(f.Type)}
				}
				for _, id := range names {
					d := c.declare(sp.info.Defs[id], prefix+"."+id.Name, "field", id.Pos(), f)
					if d != nil && wire && (f.Tag != nil || f.Names == nil) {
						d.used = true
					}
					c.declareFields(sp, f.Type, prefix+"."+id.Name)
				}
			}
			return false
		}
		return true
	})
}

// spanMethods makes every method part of its receiver type's declaration.
func (c *checker) spanMethods() {
	for fn, node := range c.methods {
		t := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if d := c.decls[t.(*types.Named).Obj()]; d != nil {
			d.spans = append(d.spans, [2]token.Pos{node.Pos(), node.End()})
		}
	}
}

func embeddedName(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.StarExpr:
		return embeddedName(e.X)
	case *ast.SelectorExpr:
		return e.Sel
	case *ast.IndexExpr:
		return embeddedName(e.X)
	case *ast.IndexListExpr:
		return embeddedName(e.X)
	}
	return e.(*ast.Ident)
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// markPath marks read the embedded fields that promote the field or method
// at index path idx of t.
func (c *checker) markPath(t types.Type, idx []int) {
	for _, i := range idx[:len(idx)-1] {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		c.markRead(st.Field(i))
		t = st.Field(i).Type()
	}
}

func (c *checker) markRead(obj types.Object) {
	if d := c.decls[origin(obj)]; d != nil {
		d.used = true
	}
}

// markFields marks every field of t, and of the structs and arrays it
// holds, read: comparing a struct or hashing it as a map key reads them all.
func (c *checker) markFields(t types.Type, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			c.markRead(u.Field(i))
			c.markFields(u.Field(i).Type(), seen)
		}
	case *types.Array:
		c.markFields(u.Elem(), seen)
	}
}

// writes adds to w the field selectors in f that only store: the left side
// of an assignment or ++/--, a store into an element of a field, a struct
// literal's keys, and `x.f = append(x.f, ...)`'s first argument.
func writes(info *types.Info, f *ast.File, w map[*ast.Ident]bool) {
	target := func(e ast.Expr) *ast.Ident {
		e = ast.Unparen(e)
		if ix, ok := e.(*ast.IndexExpr); ok {
			e = ast.Unparen(ix.X)
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				return sel.Sel
			}
		}
		return nil
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id := target(lhs)
				if id == nil {
					continue
				}
				w[id] = true
				if len(n.Lhs) != len(n.Rhs) {
					continue
				}
				call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					continue
				}
				if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || info.Uses[fn] != types.Universe.Lookup("append") {
					continue
				}
				if arg, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); ok && info.Uses[arg.Sel] == info.Uses[id] {
					w[arg.Sel] = true
				}
			}
		case *ast.IncDecStmt:
			if id := target(n.X); id != nil {
				w[id] = true
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
							w[id] = true
						}
					}
				}
			}
		}
		return true
	})
}

// use records every use in sp's files of a checked name. A module that
// only uses the checked one (bench/) keeps every field it names, even one
// it only writes: it must keep compiling.
func (c *checker) use(sp *srcPkg, userOnly bool) {
	w := map[*ast.Ident]bool{}
	for _, f := range sp.files {
		writes(sp.info, f, w)
		ast.Inspect(f, func(n ast.Node) bool {
			if b, ok := n.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) {
				c.markFields(sp.info.TypeOf(b.X), map[types.Type]bool{})
			}
			return true
		})
	}
	for id, obj := range sp.info.Uses {
		d := c.decls[origin(obj)]
		if d == nil || d.used {
			continue
		}
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			d.used = userOnly || !w[id]
			continue
		}
		d.used = true
		for _, s := range d.spans {
			if s[0] <= id.Pos() && id.Pos() < s[1] {
				d.used = false
				break
			}
		}
	}
	for _, sel := range sp.info.Selections {
		c.markPath(sel.Recv(), sel.Index())
	}
	for _, tv := range sp.info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			c.markFields(m.Key(), map[types.Type]bool{})
		}
	}
}

// interfaces returns every interface production code relies on: those its
// files spell out, those in the types of standard-library names it uses,
// and the ones fmt, errors and encoding/json look for at run time.
func (c *checker) interfaces() []*types.Interface {
	var out []*types.Interface
	seen := map[types.Type]bool{}
	var add func(t types.Type)
	add = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.(type) {
		case *types.Pointer:
			add(u.Elem())
		case *types.Slice:
			add(u.Elem())
		case *types.Array:
			add(u.Elem())
		case *types.Map:
			add(u.Key())
			add(u.Elem())
		case *types.Chan:
			add(u.Elem())
		case *types.Signature:
			for i := 0; i < u.Params().Len(); i++ {
				add(u.Params().At(i).Type())
			}
			for i := 0; i < u.Results().Len(); i++ {
				add(u.Results().At(i).Type())
			}
		default:
			if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
				if d := c.decls[n.Obj()]; d != nil && !d.used {
					return // a dead interface keeps nothing alive
				}
			}
			if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
	}
	for _, sp := range c.prog.users {
		for e, tv := range sp.info.Types {
			if it, ok := e.(*ast.InterfaceType); !ok || !c.ifaceSpecs[it] {
				add(tv.Type)
			}
		}
		for _, obj := range sp.info.Uses {
			if obj.Pkg() != nil && c.prog.byPath[obj.Pkg().Path()] == nil {
				add(obj.Type())
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, src := range []string{
		"interface{ Unwrap() error }",
		"interface{ Unwrap() []error }",
		"interface{ Is(error) bool }",
		"interface{ As(any) bool }",
	} {
		tv, err := types.Eval(c.prog.fset, nil, token.NoPos, src)
		if err != nil {
			panic(err)
		}
		add(tv.Type)
	}
	for _, name := range []string{"fmt.Stringer", "fmt.GoStringer", "fmt.Formatter",
		"encoding/json.Marshaler", "encoding/json.Unmarshaler",
		"encoding.TextMarshaler", "encoding.TextUnmarshaler"} {
		i := strings.LastIndex(name, ".")
		if pkg, err := c.prog.Import(name[:i]); err == nil {
			add(pkg.Scope().Lookup(name[i+1:]).Type())
		}
	}
	return out
}

// markImplementations marks used every method that lets a checked type
// satisfy an interface production code relies on.
func (c *checker) markImplementations() {
	ifaces := c.interfaces()
	for _, sp := range c.prog.checked {
		for _, name := range sp.pkg.Scope().Names() {
			tn, ok := sp.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			for _, it := range ifaces {
				for _, t := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
					if !types.Implements(t, it) {
						continue
					}
					for i := 0; i < it.NumMethods(); i++ {
						m := it.Method(i)
						obj, idx, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name())
						if obj != nil {
							c.markRead(obj)
							c.markPath(t, idx)
						}
					}
					break
				}
			}
		}
	}
}

// check returns one line per finding: every checked name no user reaches,
// and every allowlist entry that names a used or missing name.
func check(prog *program, allow map[string]string) []string {
	c := &checker{prog: prog, decls: map[types.Object]*decl{},
		methods: map[*types.Func]*ast.FuncDecl{}, ifaceSpecs: map[*ast.InterfaceType]bool{}}
	for _, sp := range prog.checked {
		for _, f := range sp.files {
			c.declareFile(sp, f)
		}
	}
	c.spanMethods()
	checked := map[*srcPkg]bool{}
	for _, sp := range prog.checked {
		checked[sp] = true
	}
	for _, sp := range prog.users {
		c.use(sp, !checked[sp])
	}
	c.markImplementations()

	byName := map[string]*decl{}
	var found []*decl
	for _, d := range c.decls {
		byName[d.name] = d
		if !d.used && allow[d.name] == "" {
			found = append(found, d)
		}
	}
	sort.Slice(found, func(i, j int) bool {
		a, b := prog.fset.Position(found[i].pos), prog.fset.Position(found[j].pos)
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	var out []string
	for _, d := range found {
		verb := "has no user outside tests"
		if d.kind == "field" {
			verb = "is never read outside tests"
		}
		out = append(out, fmt.Sprintf("%s: %s %s %s", prog.position(d.pos), d.kind, d.name, verb))
	}
	var stale []string
	for name := range allow {
		switch d := byName[name]; {
		case d == nil:
			stale = append(stale, fmt.Sprintf("allowlist: %s is not declared", name))
		case d.used:
			stale = append(stale, fmt.Sprintf("allowlist: %s is used outside tests; drop its entry", name))
		}
	}
	sort.Strings(stale)
	return append(out, stale...)
}

func (prog *program) position(pos token.Pos) string {
	p := prog.fset.Position(pos)
	if rel, err := filepath.Rel(prog.root, p.Filename); err == nil {
		p.Filename = rel
	}
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}
