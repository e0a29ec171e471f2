package rsin

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocTestNamesResolve keeps the documents honest about the test
// suite: every Test, Fuzz or Benchmark name DESIGN.md, README.md, the
// verify skill, the Makefile or the CI workflow cites must be a function
// in the tree. A name ending in * is a glob and must match at least one.
// A -run pattern is a regular expression: each of its |-alternatives must
// match at least one function (so `-run TestExchange`, a prefix, holds),
// and its names are not also checked one by one. A test renamed or
// deleted without its citations fails here, not in a reader's shell.
func TestDocTestNamesResolve(t *testing.T) {
	funcs, err := testFuncNames(".")
	if err != nil {
		t.Fatal(err)
	}
	matchesAny := func(match func(string) bool) bool {
		for _, f := range funcs {
			if match(f) {
				return true
			}
		}
		return false
	}

	runPat := regexp.MustCompile("(?:^|\\s)-run(?:=|\\s+)['\"]?([^'\"`\\s]+)")
	namePat := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*\*?`)
	docs := []string{"DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md", "Makefile", ".github/workflows/ci.yml"}
	cited := 0
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		rest := runPat.ReplaceAllStringFunc(string(src), func(flag string) string {
			for _, alt := range strings.Split(runPat.FindStringSubmatch(flag)[1], "|") {
				// The top-level name, without anchors or the prose's punctuation.
				alt, _, _ = strings.Cut(strings.TrimRight(alt, ".,;:)"), "/")
				alt = strings.Trim(alt, "^$")
				if alt == "" {
					continue
				}
				cited++
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: -run alternative %q: %v", doc, alt, err)
				} else if !matchesAny(re.MatchString) {
					t.Errorf("%s: -run alternative %q matches no test function", doc, alt)
				}
			}
			return ""
		})
		for _, name := range namePat.FindAllString(rest, -1) {
			cited++
			if prefix, glob := strings.CutSuffix(name, "*"); glob {
				if !matchesAny(func(f string) bool { return strings.HasPrefix(f, prefix) }) {
					t.Errorf("%s: %s matches no test function", doc, name)
				}
			} else if !matchesAny(func(f string) bool { return f == name }) {
				t.Errorf("%s: %s is not a test function", doc, name)
			}
		}
	}
	// Did-not-exercise: a scan that finds no citation checks nothing.
	if cited == 0 || len(funcs) == 0 {
		t.Fatalf("%d citations against %d test functions", cited, len(funcs))
	}
}

// testFuncNames lists the Test, Fuzz and Benchmark functions of every
// _test.go file under root, skipping dot directories.
func testFuncNames(root string) ([]string, error) {
	funcPat := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	var funcs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcPat.FindAllStringSubmatch(string(src), -1) {
			funcs = append(funcs, m[1])
		}
		return nil
	})
	return funcs, err
}
