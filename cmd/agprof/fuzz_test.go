package main

import (
	"io"
	"testing"
)

// FuzzParse feeds agprof's trace and report parsers arbitrary bytes and
// renders whatever they accept, gate included: malformed input must be an
// error, never a panic. The seeds are the synthetic captures of
// main_test.go.
func FuzzParse(f *testing.F) {
	f.Add([]byte(syntheticTrace), []byte(syntheticReport))
	f.Add([]byte(`{"traceEvents":[]}`), []byte(`{}`))
	f.Add([]byte(`{"traceEvents":[
{"name":"thread_name","ph":"M","pid":1,"tid":0,"ts":0,"args":{"name":"cache"}},
{"name":"load","cat":"cache","ph":"X","pid":1,"tid":0,"ts":0,"dur":10}]}`), []byte(`{"schema_version":7,"metrics":null}`))
	f.Add([]byte(`{"traceEvents":[
{"name":"thread_name","ph":"M","tid":0,"args":{"name":"worker 0"}},
{"name":"thread_name","ph":"M","tid":1,"args":{"name":"barrier"}},
{"name":"thread_name","ph":"M","tid":2,"args":{"name":"phases"}},
{"name":"build:x","ph":"X","tid":2,"ts":0,"dur":2000},
{"name":"expand","ph":"X","tid":0,"ts":0,"dur":40,"args":{"run":1,"level":0}},
{"name":"commit","ph":"X","tid":1,"ts":40,"dur":10,"args":{"run":1,"level":0}},
{"name":"advance","ph":"X","tid":1,"ts":50,"dur":1000,"args":{"run":1,"level":1}}]}`), []byte(`not json`))
	f.Fuzz(func(t *testing.T, trace, report []byte) {
		rep, err := parseReport("report", report)
		if err != nil {
			rep = nil
		}
		p, err := parseTrace("trace", trace)
		if err != nil {
			return
		}
		printProfile(io.Discard, p, rep)
		_ = p.serialCommitShare()
	})
}
