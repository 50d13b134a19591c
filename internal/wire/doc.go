// Package wire implements the network protocol connecting the three
// CryptoNN entities of Fig. 1 — the full specification, with message
// tables and sequence diagrams, lives in docs/PROTOCOL.md:
//
//   - authority ⇄ server/client: public-key distribution and
//     function-derived key issuance for Algorithm 1's two
//     pre-process-key-derivative steps (AuthorityServer +
//     RemoteKeyService, batched variants included);
//   - client → server: encrypted training-data submission, Algorithm 1's
//     pre-process-encryption output in transit (ClientConn.SubmitBatches +
//     TrainingServer);
//   - client ⇄ server: encrypted prediction (ClientConn.Predict +
//     PredictionServer), the secure-computation step exposed as a
//     service.
//
// Every connection speaks one codec (codec.go): an 8-byte hello/ack
// version check, then length-prefixed binary frames tagged with a type
// and a request id. Hot bodies are fixed-width element slabs (binenc.go);
// key traffic rides kind-keyed request/response envelopes (envelope.go).
// Ids let a connection carry many requests at once: the prediction
// server answers out of order, the authority in order. RemoteKeyService
// still serializes its callers, so parallel key traffic opens several
// connections (see KeyServicePool).
//
// # Serving throughput: cross-client batch coalescing
//
// A PredictionServer built with NewCoalescingPredictionServer funnels
// requests from all connections into a Dispatcher, which merges
// compatible encrypted batches (up to MaxCoalescedSamples, waiting at
// most MaxDelay) into a single evaluation and demultiplexes per-sample
// results back to each caller. Backpressure is explicit: a full dispatch
// queue rejects with the typed, retryable ErrBusy, which travels the
// wire as a retryable bfErr frame and resurfaces as ErrBusy from
// ClientConn.Predict — clients back off and retry. Dispatcher.Stats
// exposes the per-server counters (requests, rejections, coalesced batch
// widths, queue depth, latency percentiles).
//
// # Concurrency and validation contract
//
// Servers handle each connection on its own goroutine and may be closed
// from any goroutine; the Dispatcher's single dispatch loop owns all
// prediction evaluation, so the PredictFunc it drives need not be
// concurrency-safe. RemoteKeyService is safe for concurrent use (one
// in-flight request at a time); KeyServicePool fans key traffic across
// several connections. Every decoder bounds its allocations by the bytes
// it was sent, and every decoded key and ciphertext is validated for
// group membership before use — a malformed or malicious peer cannot
// inject non-elements into the crypto layer.
package wire
