// Package cluster scales the explanation service out: a thin HTTP
// router consistent-hash-shards the explanation keyspace across N
// certa-serve workers, so each worker's score cache and embedding
// store stay hot for its slice of the keyspace.
//
// The shard key is the canonical pair-content key the score cache
// already stripes on (scorecache.Key), hashed with the frozen
// placement hash scorecache.ShardHash — router placement and
// worker-side caching can never disagree, because they are literally
// the same function over the same string.
//
// Three layers:
//
//   - Ring: a deterministic consistent-hash ring with virtual nodes
//     (NewRing). Membership is fixed at construction; every process
//     that builds a ring from the same member names and virtual-node
//     count computes identical placement, so routers, workers and
//     offline tools agree without coordination.
//   - Router: an http.Handler that forwards POST /v1/explain to the
//     key's owner (retrying the next replica when a worker is
//     unreachable), partitions POST /v1/explain/batch by shard and
//     fans out concurrently, merges index-aligned results, and
//     federates the workers' GET /v1/metrics, labeled worker="<name>".
//     Workers answer with the bytes they computed; the router passes
//     them through verbatim, so routed responses are byte-identical to
//     a direct certa-serve response for the same request.
//   - Snapshot shipping: a joining worker warms up before taking
//     traffic by pulling a donor's GET /v1/snapshot stream
//     (FetchSnapshot) and installing only the keys the ring assigns
//     it (KeepOwned + scorecache.RestoreFunc). A truncated or
//     bit-flipped stream fails the snapshot format's CRC check and
//     the worker starts cold — never with a corrupt cache.
//
// Failure semantics: the router health-checks members passively (a
// failed forward marks the worker down, a successful one marks it up
// again) and optionally actively (Options.HealthEvery probes
// /v1/healthz). A down worker's shard is absorbed by the next replica
// on the ring until it returns; when no worker can serve a request
// the router answers 502 with the standard error body.
package cluster
