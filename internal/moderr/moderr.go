// Package moderr declares the repository's shared failure sentinels: the
// leaf of the error taxonomy the public mod facade exposes.
//
// The classified layers (multiobject, offline, live, serve, mod) sit at
// different depths of the import graph — offline cannot import live,
// live cannot import mod — yet errors.Is must classify a failure
// identically whichever layer raised it.  So the sentinel *values* live
// here, below everything; the mod facade re-exports them, and every layer
// wraps them with %w.  The errwrap analyzer (internal/analysis) enforces
// the wrapping discipline.  The texts name no layer: the wrapping layers
// already prefix their own.
package moderr

import "errors"

// ErrBadInstance marks validation failures of a problem instance:
// non-positive horizon, length, or delay, a delay exceeding the media
// length, an unsorted or non-finite arrival trace, an invalid catalog
// object.
var ErrBadInstance = errors.New("invalid instance")

// ErrInstanceTooLarge marks instances the exact off-line DP refuses up
// front: more arrivals than the configured cap, or banded DP tables that
// would exceed the configured memory budget.
var ErrInstanceTooLarge = errors.New("instance too large")
