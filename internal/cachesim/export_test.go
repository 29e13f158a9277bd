package cachesim

// CancelStride exposes the replay loops' context-poll stride to the
// external test package.
const CancelStride = cancelStride
