// Package atomicio provides the tmp+rename atomic file write the pool uses
// for session images and the CLI for trace files: an interrupted save
// never truncates or corrupts the previous state, because the destination
// is only ever replaced by a fully-written file.
package atomicio

import (
	"io"
	"os"
)

// WriteFile writes the output of write to path atomically: the content
// goes to path+".tmp" first and is renamed over path only after a
// successful write and close. On any failure the temporary file is
// removed and the previous contents of path are untouched.
func WriteFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// WriteFileBytes is WriteFile for in-memory content.
func WriteFileBytes(path string, data []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
