package deploy

// VerifyRoster is New's roster check, for the error-identity tests.
var VerifyRoster = verifyRoster
