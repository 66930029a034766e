package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestWriteChromeSpans(t *testing.T) {
	spans := []Span{
		{Worker: 1, Shard: 2, Phase: "run", Start: 3 * time.Millisecond, End: 9 * time.Millisecond},
		{Worker: 0, Shard: 0, Phase: "warmup", Start: 0, End: 2 * time.Millisecond},
		{Worker: 0, Shard: 0, Phase: "run", Start: 2 * time.Millisecond, End: 8 * time.Millisecond},
		{Worker: -1, Shard: -1, Phase: "merge", Start: 9 * time.Millisecond, End: 10 * time.Millisecond},
	}
	var b strings.Builder
	if err := WriteChromeSpans(&b, spans); err != nil {
		t.Fatal(err)
	}
	// Metadata lines carry "ts":0 and "tid":0 like every other trace the
	// shared jsonlio encoder writes; viewers ignore them.
	want := `{"displayTimeUnit": "ms",
"traceEvents": [
{"name":"process_name","ph":"M","ts":0,"pid":1048576,"tid":0,"args":{"name":"merge"}},
{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"worker 0"}},
{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"worker 1"}},
{"name":"merge","cat":"shard","ph":"X","ts":9000,"dur":1000,"pid":1048576,"tid":0,"args":{"shard":-1}},
{"name":"warmup","cat":"shard","ph":"X","ts":0,"dur":2000,"pid":0,"tid":0,"args":{"shard":0}},
{"name":"run","cat":"shard","ph":"X","ts":2000,"dur":6000,"pid":0,"tid":0,"args":{"shard":0}},
{"name":"run","cat":"shard","ph":"X","ts":3000,"dur":6000,"pid":1,"tid":0,"args":{"shard":2}}
]}
`
	if got := b.String(); got != want {
		t.Fatalf("trace bytes:\n%s\nwant:\n%s", got, want)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(want), &doc); err != nil || len(doc.TraceEvents) != 7 {
		t.Fatalf("trace is not one JSON object of 7 events (%v)", err)
	}
}

func TestWriteChromeSpansEmpty(t *testing.T) {
	var b strings.Builder
	if err := WriteChromeSpans(&b, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
}

func TestSpanSeconds(t *testing.T) {
	s := Span{Start: time.Second, End: 3 * time.Second}
	if s.Seconds() != 2 {
		t.Fatalf("Seconds = %v", s.Seconds())
	}
}
