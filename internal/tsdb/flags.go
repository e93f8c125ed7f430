package tsdb

import "flag"

// BindFlags registers the store's tuning flags on fs and returns the
// Options they parse into; read it after fs.Parse. Every command that
// opens a durable store binds the same names, defaults and help text from
// here, so a knob cannot drift between binaries. ReadOnly has no flag and
// stays false for the caller to set.
func BindFlags(fs *flag.FlagSet) *Options {
	o := &Options{}
	fs.Int64Var(&o.CheckpointAfterBytes, "checkpoint-bytes", 64<<20, "checkpoint as soon as the WAL grows this many bytes past the last checkpoint, each point appended since counting at least 10 (0 disables the size trigger)")
	fs.Int64Var(&o.BlockCacheBytes, "block-cache-bytes", 0, "decoded cold-block LRU cache budget in bytes (0 = default, negative disables)")
	return o
}
