package kronlab_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The reachability guard. Every top-level declaration under internal/ must
// be reached, transitively, from a declaration of cmd/, bench/ or the root
// package's non-test files — or be listed in
// testdata/unreached.txt with the reason it stays. A listed line that is
// reached, or names nothing, fails too, so the list stays exactly what
// nothing reaches.
//
// The walk is syntactic (go/parser and go/ast, every build tag's files at
// once): pkg.Name resolves through the file's imports, a bare identifier to
// its own package, and x.Name to every method called Name whose receiver
// type is reached. A method the standard library calls through an
// interface (stdlibMethods) counts as called. _test.go files are never
// roots.

// stdlibMethods are method names the standard library calls through an
// interface (error, fmt.Stringer, errors.Unwrap, http.Handler), so no
// selector in this module need name them. A type that starts serving
// another such interface adds its method here.
var stdlibMethods = []string{"Error", "String", "Unwrap", "ServeHTTP"}

// srcPkg is one directory's non-test Go files.
type srcPkg struct {
	dir      string // slash path from the module root; bench/ included
	name     string
	internal bool
	files    []*ast.File
	decls    map[string][]*decl // by key; build-tagged twins share one
	methods  map[string][]*decl // by receiver type
}

// decl is one top-level declaration: a func, a method, a type, or one
// name of a var or const spec.
type decl struct {
	pkg    *srcPkg
	file   *ast.File
	key    string // "Name", or "Type.Method" for a method
	recv   string // a method's receiver type
	method string // a method's name
	node   ast.Node
}

// id names a declaration as the allowlist does: its directory under
// internal/, a dot, and its key (analytics.EdgeTriangles,
// core.Chain.Arcs, dist/transport/tcp.NewFaultState).
func (d *decl) id() string {
	return strings.TrimPrefix(d.pkg.dir, "internal/") + "." + d.key
}

// tree is the parsed module: every directory's non-test files, and the
// source of every test file by the test functions it declares.
type tree struct {
	fset      *token.FileSet
	pkgs      map[string]*srcPkg  // by import path
	testFiles map[string][]string // test function → files declaring it
	testSrc   map[string]string   // test file → its source
}

func loadTree(t *testing.T) *tree {
	t.Helper()
	tr := &tree{
		fset:      token.NewFileSet(),
		pkgs:      map[string]*srcPkg{},
		testFiles: map[string][]string{},
		testSrc:   map[string]string{},
	}
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(tr.fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			tr.testSrc[path] = string(src)
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					tr.testFiles[fd.Name.Name] = append(tr.testFiles[fd.Name.Name], path)
				}
			}
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		ip := "kronlab"
		if dir != "." {
			ip += "/" + dir
		}
		p := tr.pkgs[ip]
		if p == nil {
			p = &srcPkg{dir: dir, name: f.Name.Name, internal: strings.HasPrefix(dir, "internal/"),
				decls: map[string][]*decl{}, methods: map[string][]*decl{}}
			tr.pkgs[ip] = p
		}
		p.files = append(p.files, f)
		for _, d := range topDecls(p, f) {
			p.decls[d.key] = append(p.decls[d.key], d)
			if d.method != "" {
				p.methods[d.recv] = append(p.methods[d.recv], d)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// topDecls lists a file's top-level declarations but blank ones, which
// nothing can name.
func topDecls(p *srcPkg, f *ast.File) []*decl {
	var out []*decl
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				out = append(out, &decl{pkg: p, file: f, key: d.Name.Name, node: d})
				continue
			}
			recv := recvName(d.Recv.List[0].Type)
			out = append(out, &decl{pkg: p, file: f, key: recv + "." + d.Name.Name,
				recv: recv, method: d.Name.Name, node: d})
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					out = append(out, &decl{pkg: p, file: f, key: s.Name.Name, node: s})
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.Name != "_" {
							out = append(out, &decl{pkg: p, file: f, key: n.Name, node: s})
						}
					}
				}
			}
		}
	}
	return out
}

func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// reach is one transitive walk over a tree.
type reach struct {
	tr      *tree
	reached map[*decl]bool
	called  map[string]bool    // method names selected by reached code
	methods map[string][]*decl // every method, by name
	pending []*decl
	imports map[*ast.File]map[string]*srcPkg
}

func newReach(tr *tree) *reach {
	r := &reach{tr: tr, reached: map[*decl]bool{}, called: map[string]bool{},
		methods: map[string][]*decl{}, imports: map[*ast.File]map[string]*srcPkg{}}
	for _, p := range tr.pkgs {
		for _, ds := range p.decls {
			for _, d := range ds {
				if d.method != "" {
					r.methods[d.method] = append(r.methods[d.method], d)
				}
			}
		}
	}
	for _, m := range stdlibMethods {
		r.called[m] = true
	}
	// Roots: every declaration outside internal/, blank ones included, and
	// the init functions inside it, which run without a caller.
	for _, p := range tr.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); !p.internal || ok && fd.Recv == nil && fd.Name.Name == "init" {
					r.walk(p, f, d)
				}
			}
		}
	}
	r.run()
	return r
}

// mark reaches d, a method only once its name is called and its receiver
// type is reached.
func (r *reach) mark(d *decl) {
	if d.method == "" || r.called[d.method] && r.anyReached(d.pkg.decls[d.recv]) {
		r.root(d)
	}
}

// root reaches d whatever reaches it, and with a type its called methods.
func (r *reach) root(d *decl) {
	if r.reached[d] {
		return
	}
	r.reached[d] = true
	r.pending = append(r.pending, d)
	for _, m := range d.pkg.methods[d.key] {
		r.mark(m)
	}
}

func (r *reach) markAll(ds []*decl) {
	for _, d := range ds {
		r.mark(d)
	}
}

func (r *reach) anyReached(ds []*decl) bool {
	for _, d := range ds {
		if r.reached[d] {
			return true
		}
	}
	return false
}

func (r *reach) call(name string) {
	if !r.called[name] {
		r.called[name] = true
		r.markAll(r.methods[name])
	}
}

func (r *reach) run() {
	for len(r.pending) > 0 {
		d := r.pending[len(r.pending)-1]
		r.pending = r.pending[:len(r.pending)-1]
		r.walk(d.pkg, d.file, d.node)
	}
}

func (r *reach) walk(p *srcPkg, f *ast.File, n ast.Node) {
	imports := r.imports[f]
	if imports == nil {
		imports = map[string]*srcPkg{}
		for _, is := range f.Imports {
			if q := r.tr.pkgs[strings.Trim(is.Path.Value, `"`)]; q != nil {
				name := q.name
				if is.Name != nil {
					name = is.Name.Name
				}
				imports[name] = q
			}
		}
		r.imports[f] = imports
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != nil {
				r.markAll(imports[id.Name].decls[x.Sel.Name])
				return false
			}
			r.call(x.Sel.Name)
			r.walk(p, f, x.X)
			return false
		case *ast.Ident:
			r.markAll(p.decls[x.Name])
		}
		return true
	})
}

// entry is one line of testdata/unreached.txt: an id — a declaration's
// id, or a package's directory under internal/ for every declaration in
// it — and the reason it stays.
type entry struct {
	line       int
	id, reason string
}

const allowlistPath = "testdata/unreached.txt"

func readAllowlist(t *testing.T) []entry {
	t.Helper()
	f, err := os.Open(allowlistPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []entry
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, reason, _ := strings.Cut(line, " ")
		out = append(out, entry{line: n, id: id, reason: strings.TrimSpace(reason)})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkReason validates an entry's reason. formula: its text is in
// FORMULAS.md. oracle: the test exists and a file declaring it, in
// another package, names the entry. seam: the same, in any package.
// fixture: some test file names the entry.
func (tr *tree) checkReason(e entry, dir, name, formulas string) error {
	kind, arg, _ := strings.Cut(e.reason, ":")
	arg = strings.TrimSpace(arg)
	switch kind {
	case "formula":
		if arg == "" || !strings.Contains(formulas, arg) {
			return fmt.Errorf("formula text %q is not in FORMULAS.md", arg)
		}
		return nil
	case "oracle", "seam":
		if len(tr.testFiles[arg]) == 0 || !strings.HasPrefix(arg, "Test") {
			return fmt.Errorf("%s test %q does not exist", kind, arg)
		}
		for _, file := range tr.testFiles[arg] {
			other := filepath.ToSlash(filepath.Dir(file)) != dir
			if (other || kind == "seam") && mentions(tr.testSrc[file], name) {
				return nil
			}
		}
		return fmt.Errorf("no file declaring %s (in another package, for an oracle) names %s", arg, name)
	case "fixture":
		for _, src := range tr.testSrc {
			if mentions(src, name) {
				return nil
			}
		}
		return fmt.Errorf("no test names fixture %s", name)
	}
	return fmt.Errorf("reason %q is not formula: <text>, oracle: <Test>, fixture or seam: <Test>", e.reason)
}

func mentions(src, name string) bool {
	return regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `\b`).MatchString(src)
}

// TestNothingUnreached fails on a declaration under internal/ that no
// command, benchmark or root-package file reaches and that
// testdata/unreached.txt does not list, and on a listed line that is
// reached, names nothing, repeats, or gives no valid reason.
func TestNothingUnreached(t *testing.T) {
	tr := loadTree(t)
	formulas, err := os.ReadFile("FORMULAS.md")
	if err != nil {
		t.Fatal(err)
	}
	// A declaration's id names it and its build-tagged twins; a directory
	// under internal/ names every declaration of the package.
	byID := map[string][]*decl{}
	for _, p := range tr.pkgs {
		if !p.internal {
			continue
		}
		dir := strings.TrimPrefix(p.dir, "internal/")
		for _, ds := range p.decls {
			for _, d := range ds {
				byID[d.id()] = append(byID[d.id()], d)
				byID[dir] = append(byID[dir], d)
			}
		}
	}

	r := newReach(tr)
	list := readAllowlist(t)
	seen := map[string]bool{}
	for _, e := range list {
		ds := byID[e.id]
		switch {
		case seen[e.id]:
			t.Errorf("%s:%d: %s is listed twice", allowlistPath, e.line, e.id)
		case len(ds) == 0:
			t.Errorf("%s:%d: %s does not exist; delete the line", allowlistPath, e.line, e.id)
		case r.anyReached(ds):
			t.Errorf("%s:%d: %s is reached; delete the line", allowlistPath, e.line, e.id)
		default:
			name := ds[0].key
			if !strings.Contains(e.id, ".") {
				name = ds[0].pkg.name
			} else if ds[0].method != "" {
				name = ds[0].method
			}
			if err := tr.checkReason(e, ds[0].pkg.dir, name, string(formulas)); err != nil {
				t.Errorf("%s:%d: %s: %v", allowlistPath, e.line, e.id, err)
			}
		}
		seen[e.id] = true
	}

	// Listed declarations are roots: what only they reach stays with them.
	// A listed method is one root, not a call of its name.
	for _, e := range list {
		for _, d := range byID[e.id] {
			r.root(d)
		}
	}
	r.run()

	var missing []string
	for _, p := range tr.pkgs {
		for _, ds := range p.decls {
			for _, d := range ds {
				if p.internal && !r.reached[d] {
					pos := tr.fset.Position(d.node.Pos())
					missing = append(missing, fmt.Sprintf("%s (%s:%d)", d.id(), filepath.ToSlash(pos.Filename), pos.Line))
				}
			}
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("unreached: %s; call it from a command, delete it, or list it in %s with its reason", m, allowlistPath)
	}
}

var (
	backticked = regexp.MustCompile("`([^`]+)`")
	testName   = regexp.MustCompile(`^((?:Test|Fuzz)\w*)(\*?)$`)
	// pkg.Name, pkg.Type.Method, pkg.Name().Field, or a bare Name; a
	// trailing * is a prefix glob.
	apiName = regexp.MustCompile(`^(?:([a-z][a-z0-9]*)\.)?([A-Z]\w*)(?:\.([A-Z]\w*))?(\*?)(?:\(\)\.\w+)?$`)
	// A span that starts like either but is neither: a shorthand such as
	// Type.A/B or Name[At], which names nothing the checks can find.
	nameLike = regexp.MustCompile(`^(Test[A-Z]|[a-z][a-z0-9]*\.[A-Z])`)
)

// TestFormulasNamesExist holds FORMULAS.md to the tree: every backticked
// Test… or Fuzz… name is a test function, and every backticked pkg.Name or
// pkg.Type.Method a declaration of that internal package (a bare Name, of
// any). A trailing * matches any suffix; any other shorthand fails.
func TestFormulasNamesExist(t *testing.T) {
	tr := loadTree(t)
	formulas, err := os.ReadFile("FORMULAS.md")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for n, line := range strings.Split(string(formulas), "\n") {
		for _, m := range backticked.FindAllStringSubmatch(line, -1) {
			span := m[1]
			if tm := testName.FindStringSubmatch(span); tm != nil {
				checked++
				if !matches(tr.testFiles, tm[1], tm[2]) {
					t.Errorf("FORMULAS.md:%d: no test function %s", n+1, span)
				}
				continue
			}
			am := apiName.FindStringSubmatch(span)
			if am == nil {
				if nameLike.MatchString(span) {
					t.Errorf("FORMULAS.md:%d: %s: write each name out in its own backticks", n+1, span)
				}
				continue
			}
			checked++
			key := am[2]
			if am[3] != "" {
				key += "." + am[3]
			}
			found, pkgFound := false, false
			for _, p := range tr.pkgs {
				if !p.internal || am[1] != "" && p.name != am[1] {
					continue
				}
				pkgFound = true
				found = found || matches(p.decls, key, am[4])
			}
			switch {
			case !pkgFound:
				t.Errorf("FORMULAS.md:%d: %s: no package %s under internal/", n+1, span, am[1])
			case !found:
				t.Errorf("FORMULAS.md:%d: %s names no declaration", n+1, span)
			}
		}
	}
	if checked == 0 {
		t.Fatal("FORMULAS.md names nothing")
	}
}

// matches reports whether m has the key name, or, with glob "*", a key
// that name prefixes.
func matches[V any](m map[string]V, name, glob string) bool {
	if _, ok := m[name]; ok {
		return true
	}
	for k := range m {
		if glob == "*" && strings.HasPrefix(k, name) {
			return true
		}
	}
	return false
}
