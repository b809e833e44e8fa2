// Fixture for the cancellation contract in the serving path
// (ndss/internal/search): exported I/O entry points must take and
// forward a context.
package search

import (
	"context"
	"os"
)

// An exported entry point that does I/O with no way to cancel it.
func ReadAll(path string) ([]byte, error) { // want `exported ReadAll performs I/O but takes no context\.Context`
	return os.ReadFile(path)
}

// Transitive I/O through a same-package helper is still I/O.
func LoadReport(path string) ([]byte, error) { // want `exported LoadReport performs I/O but takes no context\.Context`
	return slurp(path)
}

func slurp(path string) ([]byte, error) {
	return os.ReadFile(path)
}

// Minting a context severs the caller's deadline.
func refresh(s *Store) error {
	return s.FetchContext(context.Background(), "state") // want `context\.Background in library code severs cancellation`
}

// A context that is accepted but never forwarded is decoration.
func Fetch(ctx context.Context, path string) ([]byte, error) { // want `Fetch takes a context\.Context but never forwards it`
	return os.ReadFile(path)
}

// The context goes first by convention.
func Stat(path string, ctx context.Context) (int64, error) { // want `context\.Context must be the first parameter`
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Store has a context-less compatibility wrapper next to the real
// context-taking method.
type Store struct{}

func (s *Store) Fetch(key string) error {
	return s.FetchContext(context.TODO(), key) // want `context\.TODO in library code severs cancellation`
}

func (s *Store) FetchContext(ctx context.Context, key string) error {
	return ctx.Err()
}

// Holding a context and calling the context-less wrapper drops the
// deadline on the floor.
func Sync(ctx context.Context, s *Store) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.Fetch("state") // want `call FetchContext and forward the context instead of Fetch`
}

// rowReader has the index's row-keyed read surface.
type rowReader struct{}

func (rowReader) ReadRowsInto(dst []uint64, fn int, lo, hi uint32) ([]uint64, error) {
	return dst, nil
}

// Probing a list by its resolved row reads the index, so an exported
// entry point that probes must be cancellable.
func ProbeText(r rowReader, k int, textID uint32) ([]uint64, error) { // want `exported ProbeText performs I/O but takes no context\.Context`
	var out []uint64
	for fn := 0; fn < k; fn++ {
		var err error
		if out, err = r.ReadRowsInto(out, fn, textID, textID); err != nil {
			return nil, err
		}
	}
	return out, nil
}
