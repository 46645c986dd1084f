package server

import "net/http"

// WriteError exposes the error writer to the external test package,
// which needs internal/client (an importer of this package) beside it.
func (s *Server) WriteError(w http.ResponseWriter, err error) { s.writeError(w, err) }
