package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestErrorStatusFails: whatever the body, an error status makes the
// command fail, so a script sees a wrong -addr's HTML 404 or a proxy's
// text 502 as the failure it is; a JSON 200 is success.
func TestErrorStatusFails(t *testing.T) {
	for _, tc := range []struct {
		name, contentType, body string
		status                  int
		wantErr                 bool
	}{
		{"html 404", "text/html", "<html><body>404 page not found</body></html>", http.StatusNotFound, true},
		{"text 502", "text/plain", "502 Bad Gateway", http.StatusBadGateway, true},
		{"json 400", "application/json", `{"error":"title or body is required"}`, http.StatusBadRequest, true},
		{"json 200", "application/json", `{"verdict":"responsible"}`, http.StatusOK, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", tc.contentType)
				w.WriteHeader(tc.status)
				w.Write([]byte(tc.body))
			}))
			defer srv.Close()
			for cmd, run := range map[string]func() error{
				"health":  func() error { return get(srv.URL + "/v1/health") },
				"predict": func() error { return predict(srv.URL, []string{"-title", "tor2.c3.dc1 down"}) },
			} {
				if err := run(); (err != nil) != tc.wantErr {
					t.Errorf("%s: err = %v, want an error: %v", cmd, err, tc.wantErr)
				}
			}
		})
	}
}
