// Package qos holds the runtime-layer quality-of-service primitives the
// serving stack composes: a weighted fair ready queue partitioned by
// tenant (Fair), per-tenant admission quotas (Quota), and an entry-capped
// LRU cache (LRU) for the cluster's sharding and shard caches, which
// otherwise grow with every program a long-lived daemon serves.
//
// Everything here is policy over the existing execution machinery, in the
// spirit of CHET's compiler/runtime split: no backend forks, no kernel
// changes. backend.Shared swaps its single cross-run critical-path heap
// for a Fair of per-tenant heaps, pytfhed threads Quota through
// admission, and the cluster coordinator and workers bound their caches
// with LRU.
package qos

import "errors"

// ErrQuotaExceeded is returned when a tenant's admission quota (maximum
// in-flight runs or maximum queued gates) would be exceeded. It is a
// per-tenant backpressure signal: other tenants are unaffected, and the
// same tenant's next request succeeds once earlier work drains.
var ErrQuotaExceeded = errors.New("qos: tenant quota exceeded")
