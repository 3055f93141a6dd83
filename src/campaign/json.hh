/**
 * @file
 * Minimal JSON reader for the campaign engine: campaign spec files,
 * cached cell records, and previous BENCH reports (--compare) are all
 * parsed through this. It is the read-side counterpart of
 * harness/export.hh's JsonWriter and understands exactly what that
 * writer emits (objects, arrays, strings with \uXXXX escapes, finite
 * numbers, booleans, null) plus arbitrary standard JSON.
 *
 * Parsing is non-fatal (returns false + a position-annotated reason)
 * so callers can turn a malformed file into a diagnostic naming the
 * file, and so the error paths are unit-testable.
 */

#pragma once

#include <string>
#include <utility>
#include <vector>

namespace gaze
{

/** One parsed JSON value; a tree of these is one document. */
class JsonValue
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Type type() const { return ty; }
    bool isNull() const { return ty == Type::Null; }
    bool isBool() const { return ty == Type::Bool; }
    bool isNumber() const { return ty == Type::Number; }
    bool isString() const { return ty == Type::String; }
    bool isArray() const { return ty == Type::Array; }
    bool isObject() const { return ty == Type::Object; }

    /** Typed accessors; fatal (assertion) on a type mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;

    /** Array elements (fatal if not an array). */
    const std::vector<JsonValue> &items() const;

    /** Object members in source order (fatal if not an object). */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;

    /** Object member lookup; nullptr when absent (fatal if not object). */
    const JsonValue *find(const std::string &key) const;

    // Construction is the parser's business, but kept public so tests
    // and spec code can build values directly.
    static JsonValue makeNull();
    static JsonValue makeBool(bool v);
    static JsonValue makeNumber(double v);
    static JsonValue makeString(std::string v);
    static JsonValue makeArray(std::vector<JsonValue> v);
    static JsonValue
    makeObject(std::vector<std::pair<std::string, JsonValue>> v);

  private:
    Type ty = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;
};

/**
 * Parse one complete JSON document (trailing garbage is an error).
 * Returns false with a byte-offset-annotated reason in @p error.
 */
bool parseJson(const std::string &text, JsonValue *out,
               std::string *error);

/**
 * Read and parse a whole file; fatal on I/O or parse errors, naming
 * @p path — config files that do not parse must never be "defaulted".
 */
JsonValue parseJsonFile(const std::string &path);

} // namespace gaze
