// Fixture loaded under ndss/internal/dedup: the root package is in
// ctxflow's scope by exact match, so its scope must not spill over to
// the module's other packages.
package dedup

import "context"

type scanner struct{}

func (scanner) scanContext(ctx context.Context) error { return ctx.Err() }

func scan(s scanner) error {
	return s.scanContext(context.Background())
}
