// Command reachcheck reports the code under a module's internal/ tree that
// nothing uses:
//
//   - functions and methods that none of the given binaries links, found by
//     matching `go tool nm` against every non-test func declared there;
//   - fields of the *Config structs declared there that no code outside the
//     field's own file sets, tests included, found by type-checking every
//     package (and its tests) over the export data of `go list -export`.
//
// Every reported name must have an entry with a one-line reason in the
// allowlist, and every allowlist entry must match a reported name. Run it
// from the module root over binaries built without inlining, so that a
// function reached only through an inlined call still shows up in nm:
//
//	go build -gcflags=all=-l -o bin/ ./cmd/... ./examples/...
//	go run ./tools/reachcheck -allow tools/reachcheck/allow.txt bin/*
//
// It exits 1 when a reported name is missing from the allowlist or an
// allowlist entry is stale, and 2 on a usage or tool error.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
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

func main() {
	allowPath := flag.String("allow", "", "allowlist file: lines of `func|field <name> <reason>`")
	modules := flag.String("modules", ".", "comma-separated module directories whose packages and tests may set Config fields")
	flag.Parse()
	if *allowPath == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: reachcheck -allow FILE [-modules DIRS] BINARY...")
		os.Exit(2)
	}
	r, err := check(".", strings.Split(*modules, ","), flag.Args(), *allowPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reachcheck:", err)
		os.Exit(2)
	}
	r.print(os.Stdout)
	if len(r.Unlisted) > 0 || len(r.Stale) > 0 {
		os.Exit(1)
	}
}

// A Decl is one checked declaration: a function (Kind "func") or a Config
// field (Kind "field").
type Decl struct {
	Kind  string
	Name  string // nm-style symbol for a func, pkg.Type.Field for a field
	Pos   string // file:line, relative to the module root
	Lines int    // source lines of a func declaration
}

// Report is the outcome of one check.
type Report struct {
	Funcs, Fields []Decl   // everything unreached or never set
	Unlisted      []Decl   // reported names without an allowlist entry
	Stale         []string // allowlist entries that match no reported name
}

func (r *Report) print(w io.Writer) {
	lines := 0
	for _, d := range r.Funcs {
		lines += d.Lines
	}
	fmt.Fprintf(w, "unreached functions: %d (%d lines)\n", len(r.Funcs), lines)
	fmt.Fprintf(w, "never-set Config fields: %d\n", len(r.Fields))
	for _, d := range r.Unlisted {
		fmt.Fprintf(w, "not in allowlist: %s %s (%s)\n", d.Kind, d.Name, d.Pos)
	}
	for _, s := range r.Stale {
		fmt.Fprintf(w, "stale allowlist entry: %s\n", s)
	}
}

// srcDir is the directory, relative to the module root, whose declarations
// are checked.
const srcDir = "internal"

func check(root string, modules, bins []string, allowPath string) (*Report, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	allow, err := readAllow(allowPath)
	if err != nil {
		return nil, err
	}
	decls, err := funcDecls(root, modPath)
	if err != nil {
		return nil, err
	}
	syms, err := linkedSymbols(bins)
	if err != nil {
		return nil, err
	}
	fields, err := neverSetFields(root, modPath+"/"+srcDir, modules)
	if err != nil {
		return nil, err
	}
	r := &Report{Funcs: unreached(decls, syms), Fields: fields}
	seen := map[string]bool{}
	for _, d := range append(append([]Decl(nil), r.Funcs...), r.Fields...) {
		key := d.Kind + " " + d.Name
		seen[key] = true
		if _, ok := allow[key]; !ok {
			r.Unlisted = append(r.Unlisted, d)
		}
	}
	for key := range allow {
		if !seen[key] {
			r.Stale = append(r.Stale, key)
		}
	}
	sort.Strings(r.Stale)
	return r, nil
}

func modulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", errors.New("go.mod has no module line")
}

// readAllow reads the allowlist: one `func|field <name> <reason>` entry a
// line; blank lines and lines starting with # are skipped.
func readAllow(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 || (f[0] != "func" && f[0] != "field") {
			return nil, fmt.Errorf("%s:%d: want `func|field <name> <reason>`", path, i+1)
		}
		key := f[0] + " " + f[1]
		if _, dup := allow[key]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate entry %s", path, i+1, key)
		}
		allow[key] = strings.Join(f[2:], " ")
	}
	return allow, nil
}

// funcDecls lists every func declared in the non-test files under
// root/srcDir, named as the linker names it: pkg.F, pkg.T.M, pkg.(*T).M, with
// a generic function's or receiver's type arguments written [...].
func funcDecls(root, modPath string) ([]Decl, error) {
	var decls []Decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join(root, srcDir), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		pkg := modPath + "/" + filepath.ToSlash(filepath.Dir(rel))
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
			decls = append(decls, Decl{
				Kind:  "func",
				Name:  pkg + "." + funcName(fd),
				Pos:   fmt.Sprintf("%s:%d", filepath.ToSlash(rel), start.Line),
				Lines: end.Line - start.Line + 1,
			})
		}
		return nil
	})
	return decls, err
}

func funcName(fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Type.TypeParams != nil {
		name += "[...]"
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return name
	}
	t := fd.Recv.List[0].Type
	ptr := false
	if s, ok := t.(*ast.StarExpr); ok {
		ptr, t = true, s.X
	}
	var recv string
	switch t := t.(type) {
	case *ast.Ident:
		recv = t.Name
	case *ast.IndexExpr:
		recv = t.X.(*ast.Ident).Name + "[...]"
	case *ast.IndexListExpr:
		recv = t.X.(*ast.Ident).Name + "[...]"
	}
	if ptr {
		return "(*" + recv + ")." + name
	}
	return recv + "." + name
}

// linkedSymbols returns the text symbols of the binaries, with type
// arguments folded to [...].
func linkedSymbols(bins []string) (map[string]bool, error) {
	syms := map[string]bool{}
	for _, bin := range bins {
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %w", bin, err)
		}
		parseNm(out, syms)
	}
	return syms, nil
}

// parseNm adds the text (T/t) symbols of `go tool nm` output to syms. A
// line is `address type name`, and a name may contain spaces.
func parseNm(out []byte, syms map[string]bool) {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
			syms[foldTypeArgs(f[2])] = true
		}
	}
}

// foldTypeArgs rewrites every outermost bracketed span to [...], so that
// F[go.shape.int] and (*T[int]).M match the declarations' F[...] and
// (*T[...]).M.
func foldTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, c := range s {
		switch {
		case c == '[':
			if depth == 0 {
				b.WriteString("[...]")
			}
			depth++
		case c == ']':
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// unreached returns the declarations that no symbol names. A value method
// T.M also counts as linked when only its (*T).M wrapper is.
func unreached(decls []Decl, syms map[string]bool) []Decl {
	var out []Decl
	for _, d := range decls {
		if syms[d.Name] || syms[pointerWrapper(d.Name)] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// pointerWrapper maps pkg.T.M (or pkg.T[...].M) to pkg.(*T).M (or
// pkg.(*T[...]).M); any other name maps to "".
func pointerWrapper(name string) string {
	dot := strings.LastIndex(name, ".")
	if dot < 0 || strings.HasSuffix(name, "]") {
		return ""
	}
	head, method := name[:dot], name[dot+1:]
	base := strings.TrimSuffix(head, "[...]")
	recvDot := strings.LastIndex(base, ".")
	if recvDot <= strings.LastIndex(base, "/") || strings.HasSuffix(base, ")") {
		return ""
	}
	return head[:recvDot] + ".(*" + head[recvDot+1:] + ")." + method
}

// listedPackage is the part of `go list -json` output the field scan uses.
type listedPackage struct {
	ID        string `json:"ImportPath"`
	Dir       string
	GoFiles   []string
	Export    string
	ImportMap map[string]string
	ForTest   string
	Standard  bool
	DepOnly   bool
	Error     *struct{ Err string }
}

// neverSetFields type-checks every package of the modules, with their
// tests, and returns the fields of the *Config structs declared under
// declPrefix that nothing sets outside the field's own file.
func neverSetFields(root, declPrefix string, modules []string) ([]Decl, error) {
	fset := token.NewFileSet()
	declared := map[string]Decl{} // position key -> field
	set := map[string]bool{}      // position keys set outside their file
	for _, mod := range modules {
		pkgs, err := goList(filepath.Join(root, mod))
		if err != nil {
			return nil, err
		}
		for _, p := range checkedPackages(pkgs) {
			if err := scanPackage(fset, p, pkgs, root, declPrefix, declared, set); err != nil {
				return nil, err
			}
		}
	}
	var out []Decl
	for key, d := range declared {
		if !set[key] {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

func goList(dir string) (map[string]*listedPackage, error) {
	cmd := exec.Command("go", "list", "-e", "-export", "-test", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %w", dir, err)
	}
	pkgs := map[string]*listedPackage{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Error != nil && !p.DepOnly {
			return nil, fmt.Errorf("go list: %s: %s", p.ID, p.Error.Err)
		}
		pkgs[p.ID] = p
	}
	return pkgs, nil
}

// checkedPackages picks the packages whose source is scanned: each
// package's test variant when it has one (its files are a superset of the
// plain package's), the external test packages, and the rest as listed.
func checkedPackages(pkgs map[string]*listedPackage) []*listedPackage {
	hasTestVariant := map[string]bool{}
	for _, p := range pkgs {
		if p.ForTest != "" && strings.HasPrefix(p.ID, p.ForTest+" [") {
			hasTestVariant[p.ForTest] = true
		}
	}
	var out []*listedPackage
	for _, p := range pkgs {
		if p.Standard || p.DepOnly || strings.HasSuffix(p.ID, ".test") || hasTestVariant[p.ID] {
			continue
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func scanPackage(fset *token.FileSet, p *listedPackage, pkgs map[string]*listedPackage, root, declPrefix string, declared map[string]Decl, set map[string]bool) error {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		id := path
		if mapped, ok := p.ImportMap[path]; ok {
			id = mapped
		}
		dep, ok := pkgs[id]
		if !ok || dep.Export == "" {
			return nil, fmt.Errorf("no export data for %s", id)
		}
		return os.Open(dep.Export)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	pkg, err := conf.Check(strings.Fields(p.ID)[0], fset, files, info)
	if err != nil {
		return fmt.Errorf("type-check %s: %w", p.ID, err)
	}
	if strings.HasPrefix(pkg.Path(), declPrefix+"/") || pkg.Path() == declPrefix {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !strings.HasSuffix(name, "Config") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				declared[posKey(fset, f)] = Decl{
					Kind: "field",
					Name: pkg.Path() + "." + name + "." + f.Name(),
					Pos:  relPos(fset, root, f.Pos()),
				}
			}
		}
	}
	mark := func(at token.Pos, obj types.Object) {
		if v, ok := obj.(*types.Var); ok && v.IsField() && fset.File(at).Name() != fset.Position(v.Pos()).Filename {
			set[posKey(fset, v)] = true
		}
	}
	markSelector := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				mark(sel.Pos(), s.Obj())
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				t := info.Types[n].Type
				if ptr, ok := t.Underlying().(*types.Pointer); ok {
					t = ptr.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							mark(n.Pos(), info.Uses[id])
						}
					} else {
						mark(n.Pos(), st.Field(i))
					}
				}
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						markSelector(lhs)
					}
				}
			case *ast.IncDecStmt:
				markSelector(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					markSelector(n.X)
				}
			}
			return true
		})
	}
	return nil
}

// posKey identifies a field across type-checks: its file, line and name.
// Export data keeps a field's file and line but not always its column.
func posKey(fset *token.FileSet, v *types.Var) string {
	p := fset.Position(v.Pos())
	return fmt.Sprintf("%s:%d:%s", p.Filename, p.Line, v.Name())
}

func relPos(fset *token.FileSet, root string, pos token.Pos) string {
	p := fset.Position(pos)
	abs, _ := filepath.Abs(root)
	if rel, err := filepath.Rel(abs, p.Filename); err == nil {
		return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
	}
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}
