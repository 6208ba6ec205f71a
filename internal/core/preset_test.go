package core

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestPresetsRunHealthy builds every preset, stores and reads back pages
// spread over its capacity, runs a few refresh intervals past them and
// checks the system's health.
func TestPresetsRunHealthy(t *testing.T) {
	presets := []struct {
		name string
		cfg  Config
	}{
		{"DefaultConfig", DefaultConfig()},
		{"UncachedConfig(false)", UncachedConfig(false)},
		{"UncachedConfig(true)", UncachedConfig(true)},
		{"SmallConfig", SmallConfig()},
		{"FaultedConfig", FaultedConfig()},
		{"OverloadConfig", OverloadConfig()},
		{"RigConfig", RigConfig()},
		{"StudyConfig", StudyConfig()},
		{"MixedLoadConfig", MixedLoadConfig()},
		{"EnduranceConfig", EnduranceConfig()},
		{"PoolQuickConfig", PoolQuickConfig()},
	}
	for _, p := range presets {
		t.Run(p.name, func(t *testing.T) {
			s := mustSystem(t, p.cfg)
			for i := int64(0); i < 8; i++ {
				off := s.Driver.CapacityPages() / 8 * i * PageSize
				want := pattern(byte(i+1), PageSize)
				storeSync(t, s, off, want)
				if got := loadSync(t, s, off, PageSize); !bytes.Equal(got, want) {
					t.Fatalf("page at %d read back different bytes", off)
				}
			}
			s.RunFor(4 * p.cfg.TREFI)
			if err := s.CheckHealth(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// presetFields are the member size and latency fields: a cache, NAND or FTL
// size or latency.
var presetFields = map[string]bool{
	"CacheBytes":       true,
	"BlocksPerDie":     true,
	"PagesPerBlock":    true,
	"ProgramLatency":   true,
	"EraseLatency":     true,
	"OverProvisionPct": true,
}

// presetExceptions are the files (or directories, ending in /) that may set
// a presetField, each with its reason: the presets, the two call sites that
// need their own sizes, and the NAND and FTL packages' own defaults, which
// the presets start from.
var presetExceptions = map[string]string{
	"internal/experiments/fig11.go": "fig11 sweeps the DRAM-cache size and grows the NAND to hold each dataset",
	"examples/":                     "the examples demonstrate the public Config",
	"internal/nand/nand.go":         "nand.DefaultConfig is the Z-NAND part's own geometry and latencies",
	"internal/ftl/ftl.go":           "ftl.DefaultConfig is the PoC's 6.25% over-provisioning",
	"internal/core/preset.go":       "the presets",
}

// TestPresetGuard fails when non-test Go code anywhere in the repository
// (the benchmark module and tools included) sets a member's cache, NAND or
// FTL size or latency outside preset.go and presetExceptions: by
// assignment, increment, composite literal key or taking its address. A
// new member shape is a new preset.
func TestPresetGuard(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	seen := 0 // sets found in preset.go: proves the scan reads the tree
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		excepted := false
		for prefix := range presetExceptions {
			excepted = excepted || strings.HasPrefix(rel, prefix)
		}
		for _, set := range presetSets(f) {
			switch {
			case rel == "internal/core/preset.go":
				seen++
			case !excepted:
				pos := fset.Position(set.Pos())
				t.Errorf("%s:%d: sets %s outside internal/core/preset.go; build the member from a preset (or add one)",
					rel, pos.Line, set.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("the scan found no set in internal/core/preset.go: it is not reading the repository")
	}
}

// presetSets returns the identifiers in f that set a presetField: the
// field of an assignment's or increment's left side, a composite literal
// key, or an operand of &.
func presetSets(f *ast.File) []*ast.Ident {
	var sets []*ast.Ident
	field := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok && presetFields[sel.Sel.Name] {
			sets = append(sets, sel.Sel)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				field(lhs)
			}
		case *ast.IncDecStmt:
			field(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				field(n.X)
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok && presetFields[id.Name] {
				sets = append(sets, id)
			}
		}
		return true
	})
	return sets
}
