package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// runAsMainEnv makes the test binary run main instead of the tests, so
// the command is exercised with its real flags, output and exit path.
const runAsMainEnv = "RPQRUN_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// rpqrun runs the command with args and returns its stdout.
func rpqrun(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("rpqrun %v: %v\n%s", args, err, stderr.String())
	}
	return stdout.String()
}

// TestPersistPrintsSameStream: a persisted run prints the result
// stream of a plain run line for line, retractions by explicit
// deletions included, also when a deletion and a re-insertion share
// one ingest batch, and one tuple's matches in the same order (on the
// paper's running example two pairs go live at ts 19).
func TestPersistPrintsSameStream(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.stream")
	src := "1 x y a\n2 y z b\n3 x y a -\n4 x y a\n5 y w b\n6 y z b -\n"
	if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-query", "a/b", "-window", "100", "-slide", "1", in},
			"+ x z @2\n- x z @3\n+ x z @4\n+ x w @5\n- x z @6\n"},
		{[]string{"-query", "(follows/mentions)+", "-window", "15", "-slide", "1", "../../testdata/figure1.stream"},
			"+ x w @11\n+ x u @13\n+ u y @18\n+ x y @18\n+ x x @19\n+ w y @19\n+ w u @19\n+ w x @19\n+ w w @19\n"},
	} {
		plain := rpqrun(t, tc.args...)
		if plain != tc.want {
			t.Fatalf("plain run printed\n%s\nwant\n%s", plain, tc.want)
		}
		for _, batch := range []string{"1", "256"} {
			state := filepath.Join(dir, fmt.Sprintf("state%d-%s", i, batch))
			persisted := rpqrun(t, append([]string{"-persist", state, "-batch", batch}, tc.args...)...)
			if persisted != plain {
				t.Errorf("%v -persist -batch %s printed\n%s\nwant\n%s", tc.args, batch, persisted, plain)
			}
		}
	}
}
