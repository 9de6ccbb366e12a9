// Package durable is an in-scope fixture: the shared durable-write helper
// is held to the same discipline as the packages that call it.
package durable

import "os"

func bad(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644) // want "os.WriteFile bypasses the temp\\+rename\\+dir-fsync discipline"
}
