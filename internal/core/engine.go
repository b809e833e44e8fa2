// Package core keeps the two names the benchmark module compiles
// against. The engine is ndss.DB; no other package in this module
// imports core (the root package's TestNoImportOfInternalCore).
package core

import (
	"ndss"
	"ndss/internal/search"
)

// Engine is ndss.DB. It exists only because benchmark/ names it.
type Engine = ndss.DB

// Open is ndss.Open plus Attach(src) when src is non-nil. It exists
// only because benchmark/ calls it.
func Open(dir string, src search.TextSource) (*Engine, error) {
	db, err := ndss.Open(dir)
	if err != nil || src == nil {
		return db, err
	}
	return db, db.Attach(src) // a fresh DB has no source to close: never fails
}
