package testutil

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	// flagRow matches a README flag-table row: | `-flag arg` | daemons | effect |
	flagRow = regexp.MustCompile("(?m)^\\| `-([a-z-]+)[^`|]*` \\| ([^|]+) \\| (.*) \\|$")
	// statedDefault matches the value of a "(default X)" or "(default X: gloss)" remark.
	statedDefault = regexp.MustCompile(`\(default ([^\s;,)]+)`)
)

// CheckFlagTable holds a daemon's rows of the README's flag tables
// against the flags registered on fs: every flag has a row, every row
// names a registered flag, and a row that states a default states the
// registered one.
func CheckFlagTable(t *testing.T, readme, daemon string, fs *flag.FlagSet) {
	t.Helper()
	text, err := os.ReadFile(readme)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, m := range flagRow.FindAllStringSubmatch(string(text), -1) {
		if strings.Contains(m[2], "`"+daemon+"`") {
			rows[m[1]] = m[3]
		}
	}
	fs.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") { // the test binary's own
			return
		}
		effect, ok := rows[f.Name]
		if !ok {
			t.Errorf("%s flag -%s has no row in %s", daemon, f.Name, readme)
			return
		}
		delete(rows, f.Name)
		if m := statedDefault.FindStringSubmatch(effect); m != nil && strings.TrimSuffix(m[1], ":") != f.DefValue {
			t.Errorf("%s says -%s defaults to %s; %s registers %s", readme, f.Name, m[1], daemon, f.DefValue)
		}
	})
	for name := range rows {
		t.Errorf("%s documents -%s, which %s does not register", readme, name, daemon)
	}
}
