package wire

// ServeRequests exposes the control-plane serving loop to external tests
// that stand in for a misbehaving cluster node.
var ServeRequests = serveRequests
