package server

import "sync/atomic"

// metrics holds the live serving counters exposed by /stats.
type metrics struct {
	queries     atomic.Uint64 // query requests accepted for processing
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	rejected    atomic.Uint64 // 503s from admission control
	timeouts    atomic.Uint64
	cancelled   atomic.Uint64 // client disconnects
	parseErrors atomic.Uint64
	inFlight    atomic.Int64 // engine executions currently running

	cancelledAdmin  atomic.Uint64 // queries killed via the admin surface
	resourceLimited atomic.Uint64 // queries cancelled by the visit guard

	updates      atomic.Uint64 // update requests accepted for processing
	updateErrors atomic.Uint64 // update parse/apply failures

}
