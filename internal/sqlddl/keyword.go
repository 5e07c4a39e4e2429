package sqlddl

// keyword is the code of one of the words the parser names. The lexer
// looks each unquoted identifier up once (lookupKeyword) and stores the
// code in its token, so the parser matches keywords by comparing small
// integers instead of folding strings. kwNone marks every other token:
// quoted identifiers, literals, punctuation, and identifiers that are not
// keywords.
type keyword uint8

const (
	kwNone keyword = iota
	kwAction
	kwAdd
	kwAfter
	kwAlter
	kwAlways
	kwArray
	kwAs
	kwAsc
	kwAutoIncrement
	kwAutoincrement
	kwBigserial
	kwBy
	kwCascade
	kwChange
	kwCharacter
	kwCharset
	kwCheck
	kwCollate
	kwColumn
	kwComment
	kwConcurrently
	kwConstraint
	kwCreate
	kwData
	kwDefault
	kwDeferrable
	kwDeferred
	kwDelete
	kwDesc
	kwDisable
	kwDrop
	kwEnable
	kwEnforced
	kwExclude
	kwExists
	kwFirst
	kwForeign
	kwFulltext
	kwGenerated
	kwGlobal
	kwIdentity
	kwIf
	kwImmediate
	kwIndex
	kwInitially
	kwInvisible
	kwKey
	kwLarge
	kwLike
	kwLocal
	kwMatch
	kwMaterialized
	kwModify
	kwNo
	kwNot
	kwNull
	kwObject
	kwOn
	kwOnly
	kwOr
	kwPrecision
	kwPrimary
	kwReferences
	kwRename
	kwReplace
	kwRestrict
	kwSerial
	kwSerial2
	kwSerial4
	kwSerial8
	kwSet
	kwSigned
	kwSmallserial
	kwSpatial
	kwStorage
	kwStored
	kwTable
	kwTemp
	kwTemporary
	kwTime
	kwTo
	kwType
	kwUnique
	kwUnsigned
	kwUpdate
	kwUsing
	kwVarying
	kwView
	kwVirtual
	kwVisible
	kwWith
	kwWithout
	kwZerofill
	kwZone
	numKeywords
)

// keywordText is each keyword's lower-case spelling.
var keywordText = [numKeywords]string{
	kwAction: "action", kwAdd: "add", kwAfter: "after", kwAlter: "alter",
	kwAlways: "always", kwArray: "array", kwAs: "as", kwAsc: "asc",
	kwAutoIncrement: "auto_increment", kwAutoincrement: "autoincrement",
	kwBigserial: "bigserial", kwBy: "by", kwCascade: "cascade",
	kwChange: "change", kwCharacter: "character", kwCharset: "charset",
	kwCheck: "check", kwCollate: "collate", kwColumn: "column",
	kwComment: "comment", kwConcurrently: "concurrently",
	kwConstraint: "constraint", kwCreate: "create", kwData: "data",
	kwDefault: "default", kwDeferrable: "deferrable", kwDeferred: "deferred",
	kwDelete: "delete", kwDesc: "desc", kwDisable: "disable", kwDrop: "drop",
	kwEnable: "enable", kwEnforced: "enforced", kwExclude: "exclude",
	kwExists: "exists", kwFirst: "first", kwForeign: "foreign",
	kwFulltext: "fulltext", kwGenerated: "generated", kwGlobal: "global",
	kwIdentity: "identity", kwIf: "if", kwImmediate: "immediate",
	kwIndex: "index", kwInitially: "initially", kwInvisible: "invisible",
	kwKey: "key", kwLarge: "large", kwLike: "like", kwLocal: "local",
	kwMatch: "match", kwMaterialized: "materialized", kwModify: "modify",
	kwNo: "no", kwNot: "not", kwNull: "null", kwObject: "object", kwOn: "on",
	kwOnly: "only", kwOr: "or", kwPrecision: "precision",
	kwPrimary: "primary", kwReferences: "references", kwRename: "rename",
	kwReplace: "replace", kwRestrict: "restrict", kwSerial: "serial",
	kwSerial2: "serial2", kwSerial4: "serial4", kwSerial8: "serial8",
	kwSet: "set", kwSigned: "signed", kwSmallserial: "smallserial",
	kwSpatial: "spatial", kwStorage: "storage", kwStored: "stored",
	kwTable: "table", kwTemp: "temp", kwTemporary: "temporary",
	kwTime: "time", kwTo: "to", kwType: "type", kwUnique: "unique",
	kwUnsigned: "unsigned", kwUpdate: "update", kwUsing: "using",
	kwVarying: "varying", kwView: "view", kwVirtual: "virtual",
	kwVisible: "visible", kwWith: "with", kwWithout: "without",
	kwZerofill: "zerofill", kwZone: "zone",
}

// kwSlotBits sizes the open-addressing keyword index: 1024 slots, about
// ten times the keyword count, so most lookups of a non-keyword end at the
// first slot.
const (
	kwSlotBits = 10
	kwSlots    = 1 << kwSlotBits
)

// kwSlot maps a keyword's hash slot (linear probing) to its code, and
// kwMinLen/kwMaxLen bound the identifiers worth hashing at all.
var kwSlot, kwMinLen, kwMaxLen = func() (t [kwSlots]keyword, lo, hi int) {
	lo = 1 << 30
	for kw := kwNone + 1; kw < numKeywords; kw++ {
		s := keywordText[kw]
		lo, hi = min(lo, len(s)), max(hi, len(s))
		i := kwHash(s)
		for t[i] != kwNone {
			i = (i + 1) & (kwSlots - 1)
		}
		t[i] = kw
	}
	return t, lo, hi
}()

// kwHash hashes the length and the first, middle and last bytes of s
// (len(s) >= 1) folded to lower case, in constant time. Or-ing 0x20 folds
// exactly the ASCII letters among identifier bytes; lookupKeyword confirms
// a hit with a true comparison, so the cheap fold and the partial hash
// only have to be consistent.
func kwHash(s string) uint32 {
	n := len(s)
	h := uint32(n) | uint32(s[0]|0x20)<<8 | uint32(s[n/2]|0x20)<<16 | uint32(s[n-1]|0x20)<<24
	return (h * 0x9e3779b1) >> (32 - kwSlotBits)
}

// lookupKeyword returns the code of the keyword s spells in any ASCII
// case, or kwNone. Non-ASCII bytes never fold to ASCII, so look-alikes
// such as a KELVIN SIGN (U+212A) in place of the k of "key" get no code.
func lookupKeyword(s string) keyword {
	if len(s) < kwMinLen || len(s) > kwMaxLen {
		return kwNone
	}
	for i := kwHash(s); ; i = (i + 1) & (kwSlots - 1) {
		kw := kwSlot[i]
		if kw == kwNone || equalFold(s, keywordText[kw]) {
			return kw
		}
	}
}

// isTypeSuffix reports whether the keyword extends a multi-word data type
// ("double precision", "int unsigned", "timestamp with time zone").
func (kw keyword) isTypeSuffix() bool {
	switch kw {
	case kwPrecision, kwVarying, kwUnsigned, kwSigned, kwZerofill, kwWith,
		kwWithout, kwTime, kwZone, kwLocal, kwLarge, kwObject:
		return true
	}
	return false
}

// isSerial reports whether the keyword names a type of the SERIAL family.
func (kw keyword) isSerial() bool {
	switch kw {
	case kwSerial, kwBigserial, kwSmallserial, kwSerial4, kwSerial8, kwSerial2:
		return true
	}
	return false
}

// isSerialType reports whether a (lower-case) type spelling is exactly
// one word of the SERIAL family.
func isSerialType(typ string) bool {
	kw := lookupKeyword(typ)
	return kw.isSerial() && keywordText[kw] == typ
}
