package core

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestEveryRunPatternNamesATest fails when a -run or -fuzz pattern in
// the Makefile or .github/workflows/ci.yml names a test that no
// func Test… or func Fuzz… in the packages on the same line starts
// with: go test with a dead name in -run passes and runs nothing, so a
// deleted, renamed or moved test would drop out of CI unseen. A pattern
// is literal names joined by |, with ( ) groups and ^ $ anchors; a name
// anchored with $ must be a whole test name. The packages are the
// line's arguments . and ./dir, where dir/... takes in every package
// below dir; a line that names none runs the root's.
func TestEveryRunPatternNamesATest(t *testing.T) {
	root, _ := moduleRoot(t)
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	tests := map[string][]string{} // by package directory, "." for the root
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		dir := filepath.ToSlash(rel)
		for _, m := range funcRE.FindAllStringSubmatch(string(src), -1) {
			tests[dir] = append(tests[dir], m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	flagRE := regexp.MustCompile(`(?:^|\s)-(?:run|fuzz)[= ](?:'([^']*)'|"([^"]*)"|(\S+))`)
	checked := 0
	for _, file := range []string{"Makefile", filepath.Join(".github", "workflows", "ci.yml")} {
		src, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		if file == "Makefile" {
			text = strings.ReplaceAll(text, "$$", "$") // make's escape for $
		}
		for i, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "#") {
				continue // a comment in either file
			}
			var pkgs []string
			for _, arg := range strings.Fields(line) {
				if arg == "." || strings.HasPrefix(arg, "./") {
					pkgs = append(pkgs, strings.TrimPrefix(arg, "./"))
				}
			}
			if len(pkgs) == 0 {
				pkgs = []string{"."}
			}
			var inPkgs []string
			for dir, names := range tests {
				if slices.ContainsFunc(pkgs, func(pkg string) bool {
					below, all := strings.CutSuffix(pkg, "...")
					return pkg == dir || all && (below == "" || dir+"/" == below || strings.HasPrefix(dir, below))
				}) {
					inPkgs = append(inPkgs, names...)
				}
			}
			for _, m := range flagRE.FindAllStringSubmatch(line, -1) {
				pattern := m[1] + m[2] + m[3]
				names, err := expandRunPattern(pattern)
				if err != nil {
					t.Errorf("%s:%d: %v", file, i+1, err)
					continue
				}
				for _, name := range names {
					name, _, _ = strings.Cut(strings.TrimPrefix(name, "^"), "/")
					whole := strings.HasSuffix(name, "$")
					name = strings.TrimSuffix(name, "$")
					if name == "" {
						continue // ^$ runs no test
					}
					checked++
					if !slices.ContainsFunc(inPkgs, func(test string) bool {
						return test == name || !whole && strings.HasPrefix(test, name)
					}) {
						t.Errorf("%s:%d: -run or -fuzz names %q, which no func Test… or func Fuzz… in %v starts with", file, i+1, name, pkgs)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Error("found no -run or -fuzz pattern to check")
	}
}

// expandRunPattern returns every alternative a -run pattern spells out:
// "^A(B|C)$" is "^AB$" and "^AC$". It accepts name characters, the
// anchors ^ and $, the subtest separator /, | and ( ) groups, and
// refuses any other regular-expression syntax.
func expandRunPattern(p string) ([]string, error) {
	alts, rest, err := expandAlts(p)
	if err == nil && rest != "" {
		err = fmt.Errorf("unbalanced ) in -run pattern %q", p)
	}
	return alts, err
}

// expandAlts expands p up to its end or an unmatched ), which it
// returns with what follows.
func expandAlts(p string) (alts []string, rest string, err error) {
	seq := []string{""}
	for p != "" {
		switch c := p[0]; {
		case c == '|':
			alts, seq, p = append(alts, seq...), []string{""}, p[1:]
		case c == ')':
			return append(alts, seq...), p, nil
		case c == '(':
			inner, r, err := expandAlts(p[1:])
			if err != nil {
				return nil, "", err
			}
			if r == "" {
				return nil, "", fmt.Errorf("unclosed ( in -run pattern")
			}
			var next []string
			for _, a := range seq {
				for _, b := range inner {
					next = append(next, a+b)
				}
			}
			seq, p = next, r[1:]
		case c == '^' || c == '$' || c == '/' || c == '_' ||
			'0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z':
			for i := range seq {
				seq[i] += string(c)
			}
			p = p[1:]
		default:
			return nil, "", fmt.Errorf("-run pattern has %q, which is not a literal name: spell the test names out", c)
		}
	}
	return append(alts, seq...), "", nil
}
