package wal

import "os"

// fileSystem is every operation the package asks of the disk: the log, its
// segments and snapshots reach the file system through it and nothing else.
// osFS is the only shipped implementation; the package's tests substitute
// fakes that log each operation or fail one of them.
type fileSystem interface {
	MkdirAll(dir string, perm os.FileMode) error
	// OpenFile opens a file, or with os.O_RDONLY a directory to fsync.
	OpenFile(name string, flag int, perm os.FileMode) (file, error)
	Rename(from, to string) error
	Remove(name string) error
	ReadDir(dir string) ([]os.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	Truncate(name string, size int64) error
	Stat(name string) (os.FileInfo, error)
}

// file is an open handle: a log being appended to, a snapshot being
// published, or a directory being fsynced.
type file interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// osFS is the fileSystem of the running daemon: the os package, unchanged.
type osFS struct{}

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // a nil *os.File must not become a non-nil file
	}
	return f, nil
}

func (osFS) Rename(from, to string) error              { return os.Rename(from, to) }
func (osFS) Remove(name string) error                  { return os.Remove(name) }
func (osFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) ReadFile(name string) ([]byte, error)      { return os.ReadFile(name) }
func (osFS) Truncate(name string, size int64) error    { return os.Truncate(name, size) }
func (osFS) Stat(name string) (os.FileInfo, error)     { return os.Stat(name) }
