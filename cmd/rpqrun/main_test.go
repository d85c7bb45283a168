package main

import (
	"bytes"
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
// one ingest batch.
func TestPersistPrintsSameStream(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.stream")
	src := "1 x y a\n2 y z b\n3 x y a -\n4 x y a\n5 y w b\n6 y z b -\n"
	if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-query", "a/b", "-window", "100", "-slide", "1"}
	plain := rpqrun(t, append(args, in)...)
	want := "+ x z @2\n- x z @3\n+ x z @4\n+ x w @5\n- x z @6\n"
	if plain != want {
		t.Fatalf("plain run printed\n%s\nwant\n%s", plain, want)
	}
	for _, batch := range []string{"1", "256"} {
		persisted := rpqrun(t, append(args, "-persist", filepath.Join(dir, "state"+batch), "-batch", batch, in)...)
		if persisted != plain {
			t.Errorf("-persist -batch %s printed\n%s\nwant\n%s", batch, persisted, plain)
		}
	}
}
