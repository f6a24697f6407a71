package encoding

// The oracle codecs, for the format tests of package encoding_test, which
// needs the workload presets and so cannot live inside this package.
var (
	OracleEncodeValues = oracleEncodeValues
	OracleDecodeValues = oracleDecodeValues
	OracleDecodeTimes  = oracleDecodeTimes
)
