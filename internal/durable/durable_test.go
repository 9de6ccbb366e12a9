package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFilePublishesExactlyFinal(t *testing.T) {
	dir := t.TempDir()
	final := filepath.Join(dir, "obj")
	if err := os.WriteFile(final, []byte("old contents, longer than the new"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := []byte("new contents")
	if err := WriteFile(dir, ".obj-*.tmp", final, want); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := os.ReadFile(final)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("final holds %q, want %q", got, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "obj" {
		t.Fatalf("dir holds %v, want only obj", entries)
	}
}

// A rename onto an existing directory fails; the error must surface and
// the temp file must not be left behind.
func TestWriteFileFailedRenameLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	final := filepath.Join(dir, "taken")
	if err := os.MkdirAll(filepath.Join(final, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(dir, ".obj-*.tmp", final, []byte("data")); err == nil {
		t.Fatal("WriteFile over a non-empty directory succeeded")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, ".obj-*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
	if fi, err := os.Stat(final); err != nil || !fi.IsDir() {
		t.Fatalf("final path disturbed: %v, %v", fi, err)
	}
}

func TestWriteFileMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "absent")
	if err := WriteFile(dir, ".obj-*.tmp", filepath.Join(dir, "obj"), []byte("data")); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
}
