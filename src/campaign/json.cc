#include "campaign/json.hh"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/log.hh"

namespace gaze
{

bool
JsonValue::asBool() const
{
    GAZE_ASSERT(ty == Type::Bool, "JSON value is not a boolean");
    return boolean;
}

double
JsonValue::asNumber() const
{
    GAZE_ASSERT(ty == Type::Number, "JSON value is not a number");
    return number;
}

const std::string &
JsonValue::asString() const
{
    GAZE_ASSERT(ty == Type::String, "JSON value is not a string");
    return text;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    GAZE_ASSERT(ty == Type::Array, "JSON value is not an array");
    return array;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    GAZE_ASSERT(ty == Type::Object, "JSON value is not an object");
    return object;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    GAZE_ASSERT(ty == Type::Object, "JSON value is not an object");
    for (const auto &m : object)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

JsonValue
JsonValue::makeNull()
{
    return JsonValue();
}

JsonValue
JsonValue::makeBool(bool v)
{
    JsonValue j;
    j.ty = Type::Bool;
    j.boolean = v;
    return j;
}

JsonValue
JsonValue::makeNumber(double v)
{
    JsonValue j;
    j.ty = Type::Number;
    j.number = v;
    return j;
}

JsonValue
JsonValue::makeString(std::string v)
{
    JsonValue j;
    j.ty = Type::String;
    j.text = std::move(v);
    return j;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> v)
{
    JsonValue j;
    j.ty = Type::Array;
    j.array = std::move(v);
    return j;
}

JsonValue
JsonValue::makeObject(std::vector<std::pair<std::string, JsonValue>> v)
{
    JsonValue j;
    j.ty = Type::Object;
    j.object = std::move(v);
    return j;
}

namespace
{

/** Recursive-descent parser over one in-memory document. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : s(text), err(error)
    {
    }

    bool
    parseDocument(JsonValue *out)
    {
        skipWs();
        if (!parseValue(out, 0))
            return false;
        skipWs();
        if (pos != s.size())
            return fail("trailing garbage after document");
        return true;
    }

  private:
    /** Nesting bound: malformed input must not smash the stack. */
    static constexpr int kMaxDepth = 64;

    bool
    fail(const std::string &why)
    {
        *err = why + " (at byte " + std::to_string(pos) + ")";
        return false;
    }

    void
    skipWs()
    {
        while (pos < s.size()
               && (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n'
                   || s[pos] == '\r'))
            ++pos;
    }

    bool
    literal(const char *word, size_t len)
    {
        if (s.compare(pos, len, word) != 0)
            return fail(std::string("invalid literal (expected ") + word
                        + ")");
        pos += len;
        return true;
    }

    bool
    parseValue(JsonValue *out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("document nested too deeply");
        if (pos >= s.size())
            return fail("unexpected end of document");
        switch (s[pos]) {
          case '{':
            return parseObject(out, depth);
          case '[':
            return parseArray(out, depth);
          case '"': {
            std::string str;
            if (!parseString(&str))
                return false;
            *out = JsonValue::makeString(std::move(str));
            return true;
          }
          case 't':
            if (!literal("true", 4))
                return false;
            *out = JsonValue::makeBool(true);
            return true;
          case 'f':
            if (!literal("false", 5))
                return false;
            *out = JsonValue::makeBool(false);
            return true;
          case 'n':
            if (!literal("null", 4))
                return false;
            *out = JsonValue::makeNull();
            return true;
          default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue *out, int depth)
    {
        ++pos; // '{'
        std::vector<std::pair<std::string, JsonValue>> members;
        skipWs();
        if (pos < s.size() && s[pos] == '}') {
            ++pos;
            *out = JsonValue::makeObject(std::move(members));
            return true;
        }
        for (;;) {
            skipWs();
            if (pos >= s.size() || s[pos] != '"')
                return fail("expected object key string");
            std::string key;
            if (!parseString(&key))
                return false;
            skipWs();
            if (pos >= s.size() || s[pos] != ':')
                return fail("expected ':' after object key");
            ++pos;
            skipWs();
            JsonValue value;
            if (!parseValue(&value, depth + 1))
                return false;
            members.emplace_back(std::move(key), std::move(value));
            skipWs();
            if (pos >= s.size())
                return fail("unterminated object");
            if (s[pos] == ',') {
                ++pos;
                continue;
            }
            if (s[pos] == '}') {
                ++pos;
                *out = JsonValue::makeObject(std::move(members));
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    parseArray(JsonValue *out, int depth)
    {
        ++pos; // '['
        std::vector<JsonValue> items;
        skipWs();
        if (pos < s.size() && s[pos] == ']') {
            ++pos;
            *out = JsonValue::makeArray(std::move(items));
            return true;
        }
        for (;;) {
            skipWs();
            JsonValue value;
            if (!parseValue(&value, depth + 1))
                return false;
            items.push_back(std::move(value));
            skipWs();
            if (pos >= s.size())
                return fail("unterminated array");
            if (s[pos] == ',') {
                ++pos;
                continue;
            }
            if (s[pos] == ']') {
                ++pos;
                *out = JsonValue::makeArray(std::move(items));
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseString(std::string *out)
    {
        ++pos; // opening quote
        std::string str;
        while (pos < s.size()) {
            unsigned char c = static_cast<unsigned char>(s[pos]);
            if (c == '"') {
                ++pos;
                *out = std::move(str);
                return true;
            }
            if (c < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                str += static_cast<char>(c);
                ++pos;
                continue;
            }
            ++pos;
            if (pos >= s.size())
                return fail("unterminated string escape");
            switch (s[pos]) {
              case '"': str += '"'; break;
              case '\\': str += '\\'; break;
              case '/': str += '/'; break;
              case 'b': str += '\b'; break;
              case 'f': str += '\f'; break;
              case 'n': str += '\n'; break;
              case 'r': str += '\r'; break;
              case 't': str += '\t'; break;
              case 'u': {
                uint32_t cp = 0;
                if (!parseHex4(&cp))
                    return false;
                if (cp >= 0xD800 && cp <= 0xDFFF)
                    return fail("surrogate \\u escapes are not "
                                "supported");
                appendUtf8(str, cp);
                break;
              }
              default:
                return fail("unknown string escape");
            }
            ++pos;
        }
        return fail("unterminated string");
    }

    bool
    parseHex4(uint32_t *out)
    {
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            if (pos + 1 >= s.size())
                return fail("truncated \\u escape");
            char c = s[++pos];
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= uint32_t(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= uint32_t(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= uint32_t(c - 'A' + 10);
            else
                return fail("bad hex digit in \\u escape");
        }
        *out = v;
        return true;
    }

    static void
    appendUtf8(std::string &str, uint32_t cp)
    {
        if (cp < 0x80) {
            str += static_cast<char>(cp);
        } else if (cp < 0x800) {
            str += static_cast<char>(0xC0 | (cp >> 6));
            str += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            str += static_cast<char>(0xE0 | (cp >> 12));
            str += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            str += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    bool
    parseNumber(JsonValue *out)
    {
        size_t start = pos;
        if (pos < s.size() && s[pos] == '-')
            ++pos;
        size_t digits = 0;
        while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
            ++pos;
            ++digits;
        }
        if (!digits)
            return fail("invalid value");
        if (pos < s.size() && s[pos] == '.') {
            ++pos;
            digits = 0;
            while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
                ++pos;
                ++digits;
            }
            if (!digits)
                return fail("digits required after decimal point");
        }
        if (pos < s.size() && (s[pos] == 'e' || s[pos] == 'E')) {
            ++pos;
            if (pos < s.size() && (s[pos] == '+' || s[pos] == '-'))
                ++pos;
            digits = 0;
            while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
                ++pos;
                ++digits;
            }
            if (!digits)
                return fail("digits required in exponent");
        }
        std::string token = s.substr(start, pos - start);
        double v = std::strtod(token.c_str(), nullptr);
        if (!std::isfinite(v))
            return fail("number out of range");
        *out = JsonValue::makeNumber(v);
        return true;
    }

    const std::string &s;
    std::string *err;
    size_t pos = 0;
};

} // namespace

bool
parseJson(const std::string &text, JsonValue *out, std::string *error)
{
    std::string local;
    Parser p(text, error ? error : &local);
    return p.parseDocument(out);
}

JsonValue
parseJsonFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        GAZE_FATAL("cannot open '", path, "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in.good() && !in.eof())
        GAZE_FATAL("read failed on '", path, "'");

    JsonValue doc;
    std::string error;
    if (!parseJson(buf.str(), &doc, &error))
        GAZE_FATAL(path, ": ", error);
    return doc;
}

} // namespace gaze
