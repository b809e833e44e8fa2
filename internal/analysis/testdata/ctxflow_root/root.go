// Fixture for the root package (ndss), where the engine lives: it is in
// ctxflow's scope, but not in the exported-I/O scope.
package ndss

import (
	"context"
	"os"
)

// DB has a context-less wrapper next to the context-taking method.
type DB struct{}

func (db *DB) SearchContext(ctx context.Context, q []uint32) error {
	return ctx.Err()
}

func (db *DB) Search(q []uint32) error {
	return db.SearchContext(context.Background(), q) // want `context\.Background in library code severs cancellation`
}

// Holding a context and calling the wrapper drops the deadline.
func (db *DB) Explain(ctx context.Context, q []uint32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return db.Search(q) // want `call SearchContext and forward the context instead of Search`
}

// Offline builders do I/O without a context; the root package is not
// serving-path code, so this is allowed.
func BuildIndexFromFile(path string) ([]byte, error) {
	return os.ReadFile(path)
}
