package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// smallSeed1Digest is treeDigest of what `gendata -small -seed 1` writes.
// It pins the dataset's bytes: a change that moves it changes every CSV
// consumer's input, so update it only with a reviewed model change.
const smallSeed1Digest = "c1afc1de73d917db9b25ae193952e50f395b474921d333e9094d5b53f66a71ea"

// treeDigest hashes every file under dir: for each one, in sorted order of
// its slash-separated path relative to dir, the path, a newline, the byte
// count, a newline and the bytes. It also returns the file count.
func treeDigest(t *testing.T, dir string) (string, int) {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		paths = append(paths, filepath.ToSlash(rel))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(p)))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\n%d\n", p, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), len(paths)
}

// TestSmallDatasetDigest runs the command in-process and checks the bytes
// of the whole reduced dataset against the pinned digest.
func TestSmallDatasetDigest(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-small", "-seed", "1", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "dataset written under") {
		t.Errorf("stdout = %q", stdout.String())
	}
	got, files := treeDigest(t, dir)
	if files != 31 {
		t.Errorf("wrote %d files, want 31", files)
	}
	if got != smallSeed1Digest {
		t.Errorf("dataset digest = %s, want %s", got, smallSeed1Digest)
	}
}

// TestExitCodes: a bad flag or a stray argument is a usage error (2) that
// writes nothing; a write that fails is a runtime error (1) that names the
// command.
func TestExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, args := range [][]string{{"-frobnicate"}, {"-out", t.TempDir(), "stray", "-small"}} {
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q; want 2 and nothing", args, code, stdout.String())
		}
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run([]string{"-small", "-out", filepath.Join(file, "data")}, &stdout, &stderr); code != 1 ||
		!strings.HasPrefix(stderr.String(), "gendata: ") {
		t.Errorf("unwritable -out: exit %d, stderr %q; want 1 and a gendata: message", code, stderr.String())
	}
}
