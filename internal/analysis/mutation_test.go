package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A seededMutation is one bug of the class an analyzer exists to catch,
// seeded into the real tree: an exact text edit of one file (plus the
// import the edit needs, if any) and a substring that a finding of the
// analyzer must carry.
type seededMutation struct {
	name     string // subtest name: "analyzer/what"
	analyzer string
	file     string // module-relative, slash-separated
	old, new string // replaced once
	imports  string // import path the edit needs, added to the file's import block
	want     string
}

// seededMutations holds at least one row per analyzer. CHANGES.md records,
// per row, which dynamic test or ci.sh gate also catches the same edit.
var seededMutations = []seededMutation{
	{
		name: "determinism/clock-seeded-jitter", analyzer: "determinism",
		file:    "internal/machine/machine.go",
		old:     "\tm.rng = stats.NewRNG(seed ^ 0x6a17)\n",
		new:     "\tm.rng = stats.NewRNG(seed ^ uint64(time.Now().UnixNano()))\n",
		imports: "time",
		want:    "time.Now",
	},
	{
		name: "determinism/map-ordered-digest", analyzer: "determinism",
		file: "internal/memmode/memmode.go",
		old:  "\tvar sum uint64\n\tfor e, s := range p.slices {\n",
		new:  "\tvar sum uint64\n\tfor k := range map[int]int{0: 0, 1: 1} {\n\t\tsum = sum*31 + uint64(k)\n\t}\n\tfor e, s := range p.slices {\n",
		want: "range over map",
	},
	{
		name: "floatcmp/exact-zero-bandwidth", analyzer: "floatcmp",
		file: "internal/core/sortmodel.go",
		old:  "\tif bw <= 0 {\n",
		new:  "\tif bw == 0 {\n",
		want: "floating-point == comparison",
	},
	{
		name: "errcheck/dropped-close-error", analyzer: "errcheck",
		file: "internal/core/persist.go",
		old:  "\terr = m.Save(f)\n\tif cerr := f.Close(); err == nil {\n\t\terr = cerr\n\t}\n",
		new:  "\terr = m.Save(f)\n\tf.Close()\n",
		want: "(*os.File).Close",
	},
	{
		name: "printban/debug-print", analyzer: "printban",
		file: "internal/advisor/advisor.go",
		old:  "func Advise(m *core.Model, arrays []Array, budgetBytes int64) (Plan, error) {\n",
		new:  "func Advise(m *core.Model, arrays []Array, budgetBytes int64) (Plan, error) {\n\tfmt.Println(\"advise: budget\", budgetBytes)\n",
		want: "fmt.Println",
	},
	{
		name: "linemap/line-keyed-side-table", analyzer: "linemap",
		file: "internal/machine/machine.go",
		old:  "\tissueNames = sim.NameTable(\"issue\", knl.TileSlots*knl.CoresPerTile)\n",
		new:  "\tissueNames = sim.NameTable(\"issue\", knl.TileSlots*knl.CoresPerTile)\n\tlineNotes  = map[cache.Line]string{}\n",
		want: "map keyed by cache.Line",
	},
	{
		name: "unitcheck/nanos-rebranded-gbps", analyzer: "unitcheck",
		file: "internal/core/model.go",
		old:  "\tm.BWRemoteRead = units.GBps(t1.Bandwidth.Read)\n",
		new:  "\tm.BWRemoteRead = units.GBps(m.RR)\n",
		want: "Nanos -> GBps",
	},
	{
		name: "unitcheck/bare-literal-scale", analyzer: "unitcheck",
		file: "internal/core/sortmodel.go",
		old:  "\tif bw <= 0 {\n\t\treturn m.MemLatency(p.Kind)\n",
		new:  "\tif bw <= 0 {\n\t\treturn 1 * m.MemLatency(p.Kind)\n",
		want: "bare constant * a Nanos value",
	},
	{
		name: "statecov/reset-keeps-rng", analyzer: "statecov",
		file: "internal/machine/machine.go",
		old:  "\tm.rng = stats.NewRNG(seed ^ 0x6a17)\n",
		new:  "",
		want: "Machine.rng is not touched by the reset path",
	},
	{
		name: "statecov/field-outside-contract", analyzer: "statecov",
		file: "internal/machine/machine.go",
		old:  "\trng *stats.RNG\n",
		new:  "\trng *stats.RNG\n\t// lastMiss is the line of the most recent L2 miss.\n\tlastMiss cache.Line\n",
		want: "Machine.lastMiss is not folded by the digest path",
	},
	{
		name: "hotalloc/load-walk", analyzer: "hotalloc",
		file: "internal/machine/step_load.go",
		old:  "\t\t\tlocal := tileBit(m.owners(k.l), k.tile)\n",
		new:  "\t\t\tlocal := tileBit(m.owners(k.l), k.tile)\n\t\t\tm.freeDrains = append(make([]*drainStep, 0, len(m.freeDrains)+1), m.freeDrains...)\n",
		want: "make on hot path",
	},
	{
		name: "hotalloc/stream-step", analyzer: "hotalloc",
		file: "internal/machine/step_stream.go",
		old:  "\t\t\towners := m.owners(s.l)\n",
		new:  "\t\t\towners := m.owners(s.l)\n\t\t\tm.freeDrains = append(make([]*drainStep, 0, len(m.freeDrains)+1), m.freeDrains...)\n",
		want: "make on hot path",
	},
	{
		name: "hotalloc/memo-hit-copy", analyzer: "hotalloc",
		file: "internal/memo/memo.go",
		old:  "\tb, ok := c.mem[k]\n",
		new:  "\tb, ok := c.mem[k]\n\tb = append([]byte(nil), b...)\n",
		want: "append without capacity evidence",
	},
	{
		name: "memokey/dropped-fold", analyzer: "memokey",
		file: "internal/knl/config.go",
		old:  ".Uint(c.YieldSeed)",
		new:  "",
		want: "does not fold Config.YieldSeed",
	},
	{
		name: "purity/wall-clock-in-hook", analyzer: "purity",
		file:    "internal/bench/converge.go",
		old:     "\tif p == t.p {\n",
		new:     "\tif p == t.p && !time.Now().IsZero() {\n",
		imports: "time",
		want:    "call to time.Now on the hook path",
	},
}

// TestAnalyzersCatchSeededMutations proves each analyzer on the real
// tree: the unmutated module gives no findings, and each row's mutated
// module gives at least one finding of the row's analyzer. Every edit is
// applied through Loader.Overlay, so the working copy never changes. A
// row whose old text has left its file fails: update the row.
func TestAnalyzersCatchSeededMutations(t *testing.T) {
	const moduleDir = "../.."
	base, err := NewLoader(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := base.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if found := runFindings(DefaultConfig(), clean, All()); len(found) != 0 {
		t.Fatalf("unmutated tree: %d findings, first: %s", len(found), found[0])
	}

	covered := map[string]bool{}
	for _, m := range seededMutations {
		covered[m.analyzer] = true
		t.Run(m.name, func(t *testing.T) {
			path := filepath.Join(moduleDir, filepath.FromSlash(m.file))
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(src), m.old) {
				t.Fatalf("%s no longer contains %q; update the seeded mutation", m.file, m.old)
			}
			mutated := strings.Replace(string(src), m.old, m.new, 1)
			if m.imports != "" {
				mutated = strings.Replace(mutated, "import (\n", "import (\n\t\""+m.imports+"\"\n", 1)
			}
			loader := overlaid(base, map[string][]byte{path: []byte(mutated)})
			pkgs, err := loader.Load("./...")
			if err != nil {
				t.Fatal(err)
			}
			analyzers, err := ByName([]string{m.analyzer})
			if err != nil {
				t.Fatal(err)
			}
			found := runFindings(DefaultConfig(), pkgs, analyzers)
			for _, f := range found {
				if strings.Contains(f.Message, m.want) {
					return
				}
			}
			t.Errorf("no %s finding carries %q; got %d findings: %v", m.analyzer, m.want, len(found), found)
		})
	}
	for _, a := range All() {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no seeded mutation", a.Name)
		}
	}
}

// overlaid returns a loader over base's module, file set and standard
// library importer with the overlay applied: the module's packages are
// parsed and type-checked again, the standard library is not.
func overlaid(base *Loader, overlay map[string][]byte) *Loader {
	l := *base
	l.Overlay = overlay
	l.pkgs = map[string]*Package{}
	return &l
}
