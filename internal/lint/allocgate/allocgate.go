// Package allocgate turns the Go compiler's escape analysis into a
// regression gate for the hot-path packages. It runs `go build -gcflags=-m`
// over the configured packages, attributes every "escapes to heap" /
// "moved to heap" diagnostic to the enclosing top-level function, and diffs
// the result against a checked-in baseline (ALLOC_BASELINE.json at the
// module root). A hot function that gains a heap escape the baseline does
// not sanction fails the gate; an escape that disappears is reported as an
// improvement and never fails.
//
// Messages are stored without positions, so reformatting or shifting a
// function does not churn the baseline — only a genuinely new escape (or a
// new escaping expression) does. Regenerate the baseline deliberately with
// `skellint -allocgate-write` after reviewing the diff.
package allocgate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// DefaultPackages are the hot-path packages the allocation budget covers:
// the chunk-parallel graph engine, the staged extractor, the simnet round
// engine and the protocol programs it steps, and the observability plane
// that instruments them.
var DefaultPackages = []string{
	"internal/graph",
	"internal/core",
	"internal/simnet",
	"internal/protocol",
	"internal/obs",
}

// Baseline is the checked-in allocation budget: for every function in the
// gated packages, the multiset of escape-analysis messages it is allowed
// to produce.
type Baseline struct {
	// GoVersion records the toolchain that produced the baseline. Escape
	// analysis changes between releases, so a mismatch is surfaced as a
	// warning (not a failure) to explain otherwise-phantom diffs.
	GoVersion string `json:"go_version"`
	// Packages are the module-relative package directories the gate covers.
	Packages []string `json:"packages"`
	// Functions maps "file.go:FuncName" (methods as "(T).Name" or
	// "(*T).Name") to the sorted escape messages attributed to it.
	Functions map[string][]string `json:"functions"`
}

// escape is one escape-analysis diagnostic before attribution.
type escape struct {
	file string // module-relative, slash-separated
	line int
	msg  string
}

// Collect builds the gated packages with -gcflags=-m and returns the
// attributed baseline. root must be the module root; packages are
// module-relative directories.
func Collect(root string, packages []string) (*Baseline, error) {
	args := []string{"build", "-gcflags=-m"}
	for _, p := range packages {
		args = append(args, "./"+filepath.ToSlash(p))
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	escapes := parseLines(out.String())
	fns, err := attribute(root, escapes)
	if err != nil {
		return nil, err
	}
	pkgs := append([]string(nil), packages...)
	sort.Strings(pkgs)
	return &Baseline{GoVersion: runtime.Version(), Packages: pkgs, Functions: fns}, nil
}

// parseLines extracts the heap-escape diagnostics from -gcflags=-m output.
// Inlining and other advisory lines are dropped; "# pkg" headers and any
// non-diagnostic noise are skipped.
func parseLines(output string) []escape {
	var escapes []escape
	for _, line := range strings.Split(output, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
			continue
		}
		// file.go:line:col: message
		parts := strings.SplitN(line, ":", 4)
		if len(parts) != 4 || !strings.HasSuffix(parts[0], ".go") {
			continue
		}
		// Inlined stdlib bodies surface with absolute toolchain paths
		// (/usr/local/go/src/...); the budget covers module code only.
		if filepath.IsAbs(parts[0]) {
			continue
		}
		ln, err := strconv.Atoi(parts[1])
		if err != nil {
			continue
		}
		escapes = append(escapes, escape{
			file: filepath.ToSlash(parts[0]),
			line: ln,
			msg:  strings.TrimSpace(parts[3]),
		})
	}
	return escapes
}

// attribute maps each escape to its enclosing top-level function by parsing
// the source file (syntax only — no type checking needed). Escapes outside
// any function (package-level initializers) key on the bare file name.
func attribute(root string, escapes []escape) (map[string][]string, error) {
	byFile := map[string][]escape{}
	for _, e := range escapes {
		byFile[e.file] = append(byFile[e.file], e)
	}
	fns := map[string][]string{}
	for file, list := range byFile {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, filepath.Join(root, filepath.FromSlash(file)), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("allocgate: parsing %s: %v", file, err)
		}
		type span struct {
			name     string
			from, to int
		}
		var spans []span
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			spans = append(spans, span{
				name: funcKey(fset, fd),
				from: fset.Position(fd.Pos()).Line,
				to:   fset.Position(fd.End()).Line,
			})
		}
		for _, e := range list {
			key := e.file // fallback: package-level escape
			for _, s := range spans {
				if e.line >= s.from && e.line <= s.to {
					key = e.file + ":" + s.name
					break
				}
			}
			fns[key] = append(fns[key], e.msg)
		}
	}
	for _, msgs := range fns {
		sort.Strings(msgs)
	}
	return fns, nil
}

// funcKey names a function the way the baseline keys it: "Name" for
// functions, "(T).Name" / "(*T).Name" for methods.
func funcKey(fset *token.FileSet, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	var buf bytes.Buffer
	printer.Fprint(&buf, fset, fd.Recv.List[0].Type)
	return "(" + buf.String() + ")." + fd.Name.Name
}

// Regression is one function that gained heap escapes over the baseline.
type Regression struct {
	Function string   `json:"function"`
	New      []string `json:"new_escapes"`
}

// Improvement is one function that lost heap escapes since the baseline.
type Improvement struct {
	Function string   `json:"function"`
	Gone     []string `json:"gone_escapes"`
}

// Report is the outcome of gating current escapes against a baseline; it
// is the JSON artifact CI uploads.
type Report struct {
	GoVersion         string        `json:"go_version"`
	BaselineGoVersion string        `json:"baseline_go_version"`
	Packages          []string      `json:"packages"`
	Regressions       []Regression  `json:"regressions"`
	Improvements      []Improvement `json:"improvements"`
}

// Diff gates current against baseline. Regressions are messages present in
// current but absent (count-aware) from the baseline — including every
// escape of a function the baseline has never seen. Improvements are the
// reverse and are informational only.
func Diff(baseline, current *Baseline) *Report {
	rep := &Report{
		GoVersion:         current.GoVersion,
		BaselineGoVersion: baseline.GoVersion,
		Packages:          current.Packages,
		Regressions:       []Regression{},
		Improvements:      []Improvement{},
	}
	for fn, msgs := range current.Functions {
		if extra := multisetExtra(msgs, baseline.Functions[fn]); len(extra) > 0 {
			rep.Regressions = append(rep.Regressions, Regression{Function: fn, New: extra})
		}
	}
	for fn, msgs := range baseline.Functions {
		if gone := multisetExtra(msgs, current.Functions[fn]); len(gone) > 0 {
			rep.Improvements = append(rep.Improvements, Improvement{Function: fn, Gone: gone})
		}
	}
	sort.Slice(rep.Regressions, func(i, j int) bool { return rep.Regressions[i].Function < rep.Regressions[j].Function })
	sort.Slice(rep.Improvements, func(i, j int) bool { return rep.Improvements[i].Function < rep.Improvements[j].Function })
	return rep
}

// multisetExtra returns the elements of a that exceed their multiplicity
// in b, sorted.
func multisetExtra(a, b []string) []string {
	have := map[string]int{}
	for _, m := range b {
		have[m]++
	}
	var extra []string
	for _, m := range a {
		if have[m] > 0 {
			have[m]--
			continue
		}
		extra = append(extra, m)
	}
	sort.Strings(extra)
	return extra
}

// Load reads a baseline file.
func Load(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("allocgate: %s: %v", path, err)
	}
	if b.Functions == nil {
		b.Functions = map[string][]string{}
	}
	return &b, nil
}

// Save writes a baseline file with stable formatting (sorted keys, trailing
// newline) so regeneration diffs cleanly.
func (b *Baseline) Save(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Save writes the gate report as the CI artifact JSON.
func (r *Report) Save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
