package monitoring

import "testing"

func TestDataTypeString(t *testing.T) {
	if TimeSeries.String() != "TIME_SERIES" || Event.String() != "EVENT" {
		t.Fatal("DataType strings wrong")
	}
}
