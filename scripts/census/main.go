// Command census lists the identifiers of the module's product code that
// nothing in the product reaches, and compares them with an allow-list.
//
// Its subjects are every package-level identifier and every method (interface
// methods included) declared in non-test Go under internal/ and in the root
// package, exported or not. A subject is reached when a non-test file of any
// package of the module refers to it from outside the subject's own
// declaration (a method's receiver does not count as a use of its type). A
// method is also reached when its receiver type implements an interface
// whose method of the same name is reached; every method of an exported
// standard-library interface counts as reached, because the standard library
// calls them (fmt's Stringer, sort.Interface, io.Writer). The file sets of
// GOARCH=amd64 and arm64 are checked in turn and their results unioned.
//
// Each line of the allow-list, scripts/census/allow.txt, names one subject
// the module keeps although the product does not reach it, and says why
// after a space or a tab:
//
//	tensor.ApproxEqual  fixture for the attn, autograd and nn tests
//
// Blank lines and lines starting with # are skipped. census exits 1 when an
// unreached subject is not on the list, or a listed one is reached or no
// longer declared.
//
// Run it from the module root:
//
//	go run ./scripts/census [-list]
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"unicode"
)

func main() {
	list := flag.Bool("list", false, "print every unreached subject, listed or not")
	flag.Parse()
	os.Exit(run(".", "scripts/census/allow.txt", *list, os.Stdout))
}

// run checks the module at dir against the allow-list at allowPath and
// returns the exit code: 0 when the two agree, 1 when they do not, 2 on a
// load error.
func run(dir, allowPath string, list bool, w io.Writer) int {
	allowed, err := readAllow(allowPath)
	if err != nil {
		fmt.Fprintln(w, "census:", err)
		return 2
	}
	res, err := census(dir)
	if err != nil {
		fmt.Fprintln(w, "census:", err)
		return 2
	}
	code := 0
	for _, k := range res.unreached() {
		_, ok := allowed[k]
		switch {
		case list:
			fmt.Fprintf(w, "%s\t%s\n", k, res.pos[k])
		case !ok:
			fmt.Fprintf(w, "%s: %s is reached by no product code; delete it or add it to %s with a reason\n", res.pos[k], k, filepath.Base(allowPath))
		}
		if !ok {
			code = 1
		}
	}
	var listed []string
	for k := range allowed {
		listed = append(listed, k)
	}
	sort.Strings(listed)
	for _, k := range listed {
		switch {
		case res.pos[k] == "":
			fmt.Fprintf(w, "%s: %s is not declared any more; drop its line\n", filepath.Base(allowPath), k)
			code = 1
		case res.reached[k]:
			fmt.Fprintf(w, "%s: %s is reached by product code now; drop its line\n", filepath.Base(allowPath), k)
			code = 1
		}
	}
	if code == 0 {
		fmt.Fprintf(w, "census: %d subjects, %d unreached, each on %s\n", len(res.pos), len(res.unreached()), filepath.Base(allowPath))
	}
	return code
}

// readAllow parses the allow-list into subject → reason.
func readAllow(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allowed := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason := line, ""
		if i := strings.IndexFunc(line, unicode.IsSpace); i >= 0 {
			key, reason = line[:i], line[i:]
		}
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, key)
		}
		if _, dup := allowed[key]; dup {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, n, key)
		}
		allowed[key] = strings.TrimSpace(reason)
	}
	return allowed, sc.Err()
}

// result is the union of every pass: subject → first declaration position,
// and the subjects some pass found reached.
type result struct {
	pos     map[string]string
	reached map[string]bool
}

func (r *result) unreached() []string {
	var out []string
	for k := range r.pos {
		if !r.reached[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// census type-checks the module once per GOARCH and unions the passes.
func census(dir string) (*result, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	res := &result{pos: map[string]string{}, reached: map[string]bool{}}
	parsed := map[string]*ast.File{} // shared by the passes: go/types does not write to the AST
	fset := token.NewFileSet()
	for _, arch := range []struct{ goarch, tag string }{{"amd64", "amd64.v1"}, {"arm64", "arm64.v8.0"}} {
		// The source importer reads build.Default, so each pass sets it.
		ctxt := &build.Default
		ctxt.GOOS, ctxt.GOARCH, ctxt.ToolTags = "linux", arch.goarch, []string{arch.tag}
		ctxt.CgoEnabled = false
		ld := &loader{fset: fset, parsed: parsed, modPath: modPath, modDir: dir,
			std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*types.Package{}}
		if err := ld.loadModule(); err != nil {
			return nil, fmt.Errorf("GOARCH=%s: %w", arch.goarch, err)
		}
		ld.pass(res)
	}
	return res, nil
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// modPkg is one type-checked package of the module.
type modPkg struct {
	rel   string // directory relative to the module root, "" for the root
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// loader type-checks the module's packages from source with their uses
// recorded, and hands every other import to the standard library's source
// importer.
type loader struct {
	fset            *token.FileSet
	parsed          map[string]*ast.File
	modPath, modDir string
	std             types.Importer
	pkgs            map[string]*types.Package // module packages; nil while one loads
	mod             []*modPkg
}

func (ld *loader) loadModule() error {
	var dirs []string
	err := filepath.WalkDir(ld.modDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != ld.modDir {
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return err
	}
	for _, d := range dirs {
		rel, _ := filepath.Rel(ld.modDir, d)
		path := ld.modPath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if _, err := ld.Import(path); err != nil && !errors.Is(err, errNoFiles) {
			return err
		}
	}
	return nil
}

var errNoFiles = errors.New("no non-test Go files")

func (ld *loader) Import(path string) (*types.Package, error) {
	if path != ld.modPath && !strings.HasPrefix(path, ld.modPath+"/") {
		return ld.std.Import(path)
	}
	if p, ok := ld.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	ld.pkgs[path] = nil
	dir := filepath.Join(ld.modDir, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, ld.modPath), "/")))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil, errNoFiles
		}
		return nil, err
	}
	if len(bp.GoFiles) == 0 {
		return nil, errNoFiles
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		fn := filepath.Join(dir, name)
		f, ok := ld.parsed[fn]
		if !ok {
			if f, err = parser.ParseFile(ld.fset, fn, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			ld.parsed[fn] = f
		}
		files = append(files, f)
	}
	var errs []error
	conf := types.Config{Importer: ld, Error: func(err error) { errs = append(errs, err) }}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, _ := conf.Check(path, ld.fset, files, info)
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	ld.pkgs[path] = pkg
	rel, _ := filepath.Rel(ld.modDir, dir)
	ld.mod = append(ld.mod, &modPkg{rel: filepath.ToSlash(rel), files: files, info: info, pkg: pkg})
	return pkg, nil
}

// subject is one declared identifier, with the source span of its own
// declaration (uses inside it do not reach it).
type subject struct {
	key        string
	start, end token.Pos
}

// pass records this file set's subjects and reached subjects into res.
func (ld *loader) pass(res *result) {
	subjects := map[types.Object]subject{}
	recvIdents := map[*ast.Ident]bool{}
	for _, mp := range ld.mod {
		if mp.rel != "." && mp.rel != "internal" && !strings.HasPrefix(mp.rel, "internal/") {
			continue
		}
		prefix := mp.pkg.Name() + "."
		add := func(id *ast.Ident, key string, node ast.Node) {
			if id.Name == "_" {
				return
			}
			if obj := mp.info.Defs[id]; obj != nil {
				subjects[obj] = subject{key: prefix + key, start: node.Pos(), end: node.End()}
				if _, ok := res.pos[prefix+key]; !ok {
					p := ld.fset.Position(id.Pos())
					rel, _ := filepath.Rel(ld.modDir, p.Filename)
					res.pos[prefix+key] = fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
				}
			}
		}
		for _, f := range mp.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						if d.Name.Name != "init" && !(d.Name.Name == "main" && mp.pkg.Name() == "main") {
							add(d.Name, d.Name.Name, d)
						}
						continue
					}
					recv := receiverIdent(d.Recv.List[0].Type)
					recvIdents[recv] = true
					add(d.Name, recv.Name+"."+d.Name.Name, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, s.Name.Name, s)
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, n := range m.Names {
										add(n, s.Name.Name+"."+n.Name, m)
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add(n, n.Name, s)
							}
						}
					}
				}
			}
		}
	}

	reached := map[types.Object]bool{}
	var ifaceMethods []*types.Func // reached methods of interfaces, to resolve implementations against
	reach := func(obj types.Object) {
		if reached[obj] {
			return
		}
		reached[obj] = true
		if fn, ok := obj.(*types.Func); ok && isInterfaceMethod(fn) {
			ifaceMethods = append(ifaceMethods, fn)
		}
	}
	reach(types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0))
	for _, p := range ld.stdPackages() {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					reach(it.Method(i))
				}
			}
		}
	}
	for _, mp := range ld.mod {
		for id, obj := range mp.info.Uses {
			fn, isFunc := obj.(*types.Func)
			if isFunc {
				fn = fn.Origin()
				obj = fn
			}
			s, isSubject := subjects[obj]
			if isSubject && (recvIdents[id] || (id.Pos() >= s.start && id.Pos() < s.end)) {
				continue
			}
			if isSubject || (isFunc && isInterfaceMethod(fn)) {
				reach(obj)
			}
		}
	}

	// A method is reached through any reached interface method of its name
	// that its receiver type (or a pointer to it) implements; a method so
	// reached on an interface may reach further implementations in turn.
	var methods []*types.Func
	for obj := range subjects {
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			methods = append(methods, fn)
		}
	}
	for done := 0; done < len(ifaceMethods); {
		for _, im := range ifaceMethods[done:] {
			done++
			it := recvType(im).Underlying().(*types.Interface)
			for _, m := range methods {
				if reached[m] || m.Name() != im.Name() {
					continue
				}
				t := recvType(m)
				if types.Implements(t, it) || (!types.IsInterface(t) && types.Implements(types.NewPointer(t), it)) {
					reach(m)
				}
			}
		}
	}
	for obj, s := range subjects {
		if reached[obj] {
			res.reached[s.key] = true
		}
	}
}

// stdPackages is every package outside the module that the module's
// packages import, directly or not.
func (ld *loader) stdPackages() []*types.Package {
	seen := map[*types.Package]bool{}
	var out []*types.Package
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		for _, q := range p.Imports() {
			if !seen[q] && ld.pkgs[q.Path()] == nil {
				seen[q] = true
				out = append(out, q)
				visit(q)
			}
		}
	}
	for _, mp := range ld.mod {
		visit(mp.pkg)
	}
	return out
}

func isInterfaceMethod(fn *types.Func) bool {
	r := fn.Type().(*types.Signature).Recv()
	return r != nil && types.IsInterface(r.Type())
}

// recvType is a method's receiver type with any pointer taken off.
func recvType(fn *types.Func) types.Type {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// receiverIdent is the type name in a method's receiver expression.
func receiverIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		default:
			return t.(*ast.Ident)
		}
	}
}
