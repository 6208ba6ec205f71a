package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// TestCheckFixture builds the fixture module's binary without inlining and
// checks the whole report: which functions are unreached (pointer and value
// receivers, a generic function and a generic receiver), which Config
// fields are never set (a field set only in its own file counts as never
// set, one set only by a test does not, and cfg.Inner.X = … sets
// InnerConfig.X but not Config.Inner), and that a stale allowlist entry is
// reported.
func TestCheckFixture(t *testing.T) {
	root := filepath.Join("testdata", "fixture")
	dir := t.TempDir()
	bin := filepath.Join(dir, "app")
	build := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, "./cmd/app")
	build.Dir = root
	build.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	allow := filepath.Join(dir, "allow.txt")
	if err := os.WriteFile(allow, []byte(`# comment
func fixture/internal/a.Unused never called, kept for the test
field fixture/internal/a.Config.NeverSet kept for the test
func fixture/internal/a.Gone stale: no such function
`), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := check(root, []string{"."}, []string{bin}, allow)
	if err != nil {
		t.Fatal(err)
	}
	names := func(ds []Decl) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.Kind+" "+d.Name)
		}
		sort.Strings(out)
		return out
	}
	wantFuncs := []string{
		"func fixture/internal/a.(*Box[...]).Put",
		"func fixture/internal/a.(*T).PtrUnused",
		"func fixture/internal/a.DefaultConfig",
		"func fixture/internal/a.GenericUnused[...]",
		"func fixture/internal/a.T.ValUnused",
		"func fixture/internal/a.Unused",
	}
	if got := names(r.Funcs); !reflect.DeepEqual(got, wantFuncs) {
		t.Errorf("unreached functions:\n got %q\nwant %q", got, wantFuncs)
	}
	wantFields := []string{
		"field fixture/internal/a.Config.Inner",
		"field fixture/internal/a.Config.NeverSet",
		"field fixture/internal/a.InnerConfig.Y",
	}
	if got := names(r.Fields); !reflect.DeepEqual(got, wantFields) {
		t.Errorf("never-set fields:\n got %q\nwant %q", got, wantFields)
	}
	wantUnlisted := []string{
		"field fixture/internal/a.Config.Inner",
		"field fixture/internal/a.InnerConfig.Y",
		"func fixture/internal/a.(*Box[...]).Put",
		"func fixture/internal/a.(*T).PtrUnused",
		"func fixture/internal/a.DefaultConfig",
		"func fixture/internal/a.GenericUnused[...]",
		"func fixture/internal/a.T.ValUnused",
	}
	if got := names(r.Unlisted); !reflect.DeepEqual(got, wantUnlisted) {
		t.Errorf("not in allowlist:\n got %q\nwant %q", got, wantUnlisted)
	}
	if want := []string{"func fixture/internal/a.Gone"}; !reflect.DeepEqual(r.Stale, want) {
		t.Errorf("stale entries = %q, want %q", r.Stale, want)
	}
}

// TestUnreachedMatchesLinkerNames checks the name matching on a symbol
// table: type arguments fold to [...], and a value method counts as linked
// when only the (*T).M wrapper the compiler generates for *T's method set
// is in the binary.
func TestUnreachedMatchesLinkerNames(t *testing.T) {
	syms := map[string]bool{}
	parseNm([]byte(`  49b160 T p/a.(*Box[go.shape.int]).Get
  49af60 T p/a.(*T).Wrapped
  49af70 T p/a.(*Box[go.shape.int]).ValWrapped
  4ce658 R p/a..dict.Generic[int]
  49b180 T p/a.Generic[go.shape.struct { A int; B []p/a.T }]
  49b1a0 T p/a.Generic[go.shape.struct { A int; B []p/a.T }].func1
`), syms)
	decls := []Decl{
		{Kind: "func", Name: "p/a.(*Box[...]).Get"},
		{Kind: "func", Name: "p/a.T.Wrapped"},
		{Kind: "func", Name: "p/a.Box[...].ValWrapped"},
		{Kind: "func", Name: "p/a.Generic[...]"},
		{Kind: "func", Name: "p/a.T.Bare"},
		{Kind: "func", Name: "p/a.(*T).Wrapped2"},
	}
	var got []string
	for _, d := range unreached(decls, syms) {
		got = append(got, d.Name)
	}
	if want := []string{"p/a.T.Bare", "p/a.(*T).Wrapped2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unreached = %q, want %q", got, want)
	}
}
