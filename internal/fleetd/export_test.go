package fleetd

// Degraded reports whether the daemon is in degraded mode and why.
func (s *Server) Degraded() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded, s.degradedReason
}
