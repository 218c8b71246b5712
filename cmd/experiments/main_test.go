package main

import (
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"randsync/internal/hierarchy"
	"randsync/internal/object"
)

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	ferr := f()
	os.Stdout = stdout
	w.Close()
	s := <-out
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return s
}

// TestE13Census: the E13 experiment prints EXPERIMENTS.md's census rows —
// register 20,736 / 0, test&set 4,096 / 0, sticky-bit 36,864 / 36 — and
// the lowest-id sticky-bit solver, sticky-bit/2 machine 26863.
func TestE13Census(t *testing.T) {
	out := captureStdout(t, e13)
	rows := map[string][2]string{}
	for _, line := range strings.Split(out, "\n") {
		if c := cells(line); len(c) == 3 {
			name := strings.TrimSuffix(c[0], " (2 free states)")
			rows[name] = [2]string{strings.ReplaceAll(c[1], ",", ""), c[2]}
		}
	}
	for name, want := range map[string][2]string{
		"register":   {"20736", "0"},
		"test&set":   {"4096", "0"},
		"sticky-bit": {"36864", "36"},
	} {
		if got, ok := rows[name]; !ok || got != want {
			t.Errorf("%s row: machines/solvers %v (found %v), want %v", name, got, ok, want)
		}
	}
	m, err := hierarchy.MachineByID(object.StickyBitType{}, 2, 26863)
	if err != nil {
		t.Fatal(err)
	}
	if want := "example solver over one sticky-bit:\n" + hierarchy.Describe(m); !strings.Contains(out, want) {
		t.Errorf("E13 output lacks the example\n%s\ngot:\n%s", want, out)
	}
	if strings.Count(out, "example solver") != 1 {
		t.Errorf("E13 prints %d examples, want 1 (sticky-bit only):\n%s", strings.Count(out, "example solver"), out)
	}
}

// TestExperimentsRun runs every experiment once.  Each returns an error
// when its own checks fail: a witness that does not replay or decide both
// values, a live run whose processes disagree, a chaos trial that breaks
// wait-freedom, a census that errs.
func TestExperimentsRun(t *testing.T) {
	captureStdout(t, func() error { return run(nil) })
}

// golden lists the experiments whose markdown output EXPERIMENTS.md holds
// verbatim.  partial marks a section whose table carries rows the
// experiment does not print (E13's three-free-state rows).
var golden = []struct {
	section string
	run     func() error
	partial bool
}{
	{"E1", e1, false}, {"E2", e2, false}, {"E3", e3, false}, {"E4", e4, false},
	{"E12", e12, false}, {"E13", e13, true},
}

// TestExperimentsGolden renders every deterministic table (and E4's
// checked facts) and diffs each row against the block under the same
// header in the experiment's EXPERIMENTS.md section, failing by
// experiment and row.  Cells are compared trimmed, so column padding in
// the file does not matter.  E3 prints one table per object family, and
// each must equal the file's one table.
func TestExperimentsGolden(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range golden {
		section, ok := docSection(string(doc), g.section)
		if !ok {
			t.Errorf("%s: EXPERIMENTS.md has no %q section", g.section, "## "+g.section)
			continue
		}
		want := mdBlocks(section)
		for _, got := range mdBlocks(captureStdout(t, g.run)) {
			i := slices.IndexFunc(want, func(b mdBlock) bool { return b.head == got.head })
			if i < 0 {
				t.Errorf("%s: EXPERIMENTS.md has no block headed %q", g.section, got.head)
				continue
			}
			file := map[string]string{}
			for _, row := range want[i].rows {
				file[rowKey(row)] = row
			}
			for _, row := range got.rows {
				switch frow, ok := file[rowKey(row)]; {
				case !ok:
					t.Errorf("%s row %q: missing from EXPERIMENTS.md; the code prints %q", g.section, rowKey(row), row)
				case frow != row:
					t.Errorf("%s row %q: EXPERIMENTS.md has %q, the code prints %q", g.section, rowKey(row), frow, row)
				}
				delete(file, rowKey(row))
			}
			for _, row := range want[i].rows {
				if _, extra := file[rowKey(row)]; extra && !g.partial {
					t.Errorf("%s row %q: EXPERIMENTS.md has %q, which the code does not print", g.section, rowKey(row), row)
				}
			}
		}
	}
}

// docSection returns the body of EXPERIMENTS.md's "## <name> " section,
// up to the next heading or rule.
func docSection(doc, name string) (string, bool) {
	_, body, ok := strings.Cut(doc, "\n## "+name+" ")
	if !ok {
		return "", false
	}
	for _, end := range []string{"\n## ", "\n---"} {
		body, _, _ = strings.Cut(body, end)
	}
	return body, true
}

// mdBlock is one markdown table or bulleted list: head is a table's
// normalized header row, or "list"; rows are its normalized rows in
// order, without a table's rule.
type mdBlock struct {
	head string
	rows []string
}

// mdBlocks splits text into its markdown tables and lists.
func mdBlocks(text string) []mdBlock {
	var blocks []mdBlock
	open := false
	for _, line := range strings.Split(text, "\n") {
		var head, row string
		switch {
		case strings.HasPrefix(line, "|"):
			row = strings.Join(cells(line), " | ")
		case strings.HasPrefix(line, "- "):
			head, row = "list", strings.TrimSpace(line)
		default:
			open = false
			continue
		}
		if !open {
			open = true
			if head == "" {
				blocks = append(blocks, mdBlock{head: row})
				continue
			}
			blocks = append(blocks, mdBlock{head: head})
		}
		if strings.Trim(row, "-| ") != "" {
			b := &blocks[len(blocks)-1]
			b.rows = append(b.rows, row)
		}
	}
	return blocks
}

// rowKey names a row in failures and matches it across the two sides: a
// table row's first cell, or a list item's text before its colon.
func rowKey(row string) string {
	sep := " | "
	if strings.HasPrefix(row, "- ") {
		sep = ":"
	}
	key, _, _ := strings.Cut(row, sep)
	return key
}

// cells splits a markdown table row into its trimmed cells.
func cells(line string) []string {
	if !strings.HasPrefix(line, "|") {
		return nil
	}
	c := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
	for i := range c {
		c[i] = strings.TrimSpace(c[i])
	}
	return c
}

// TestNoOrphanPackages fails on a package under internal/ that no other
// package imports outside its tests and that EXPERIMENTS.md does not name
// as a result (as "internal/<name>").  It reads only import clauses, over
// the whole tree, the nested bench module included.
func TestNoOrphanPackages(t *testing.T) {
	const root = "../.."
	doc, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	internal := map[string]bool{} // import paths of the internal packages
	imported := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := "randsync/" + filepath.ToSlash(rel)
		if strings.HasPrefix(pkg, "randsync/internal/") {
			internal[pkg] = true
		}
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && p != pkg {
				imported[p] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(internal) == 0 {
		t.Fatal("found no internal packages; is the walk rooted at the module?")
	}
	var orphans []string
	for pkg := range internal {
		name := strings.TrimPrefix(pkg, "randsync/")
		if !imported[pkg] && !strings.Contains(string(doc), name) {
			orphans = append(orphans, pkg)
		}
	}
	slices.Sort(orphans)
	for _, pkg := range orphans {
		t.Errorf("%s: no package imports it outside its tests, and EXPERIMENTS.md names no result for it", pkg)
	}
}
