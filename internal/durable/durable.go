// Package durable publishes files crash-atomically: the bytes go to a temp
// file in the destination directory, which is fsynced, closed, renamed
// onto the final name, and followed by an fsync of the directory. After a
// crash the final name holds either its previous contents or the complete
// new file, never a torn one. Checkpoints (internal/recovery) and
// off-chain objects (internal/offchain) are written this way.
package durable

import "os"

// WriteFile atomically publishes data at final, a path inside dir. The temp
// file is created in dir from tmpPattern (an os.CreateTemp pattern, so
// callers can sweep leftovers of a crashed write by glob) and is removed on
// any failure before the rename. Every error is returned, the directory
// fsync's included: a rename whose directory entry is not durable can be
// lost on power failure. The returned errors name the failing operation
// and path; callers add their own package prefix.
func WriteFile(dir, tmpPattern, final string, data []byte) error {
	tmp, err := os.CreateTemp(dir, tmpPattern)
	if err != nil {
		return err
	}
	// fail discards the unpublished temp file and returns err.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fail(err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
